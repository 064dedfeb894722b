package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"gaaapi/internal/ids"
)

// probeSources are HighAfter distinct attacker addresses: the fewest
// the default correlator needs to mark the site under attack.
func probeSources() []string {
	out := make([]string, ids.DefaultCorrelatorConfig().HighAfter)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d", 66+i)
	}
	return out
}

// simClock is a manually advanced clock for the demo deployment.
type simClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *simClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *simClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestOneProbeCannotLockTheSite: on the default deployment one phf
// probe moves the threat level no further than the demo policy's own
// set_threat_level asks, spoof-suspected probes move it not at all, and
// the lockdown that probes from HighAfter sources bring ends on its own
// — one level per quiet five minutes, though every request in between
// is denied.
func TestOneProbeCannotLockTheSite(t *testing.T) {
	clock := &simClock{now: time.Date(2003, 5, 1, 9, 0, 0, 0, time.UTC)}
	o, err := parseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	o.stack.Clock = clock.Now
	o.stack.AccessLog = io.Discard
	o.stack.SpoofedSources = []string{"203.0.113.*"}
	st, err := build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := st.Handler()
	const phf = "/cgi-bin/phf?Qalias=x"
	sources := probeSources()
	expect := func(target, ip string, code int, level ids.Level) {
		t.Helper()
		if w := get(t, h, target, ip); w.Code != code {
			t.Fatalf("%s from %s = %d, want %d", target, ip, w.Code, code)
		}
		if got := st.Threat.Level(); got != level {
			t.Fatalf("threat level = %s after %s from %s, want %s", got, target, ip, level)
		}
	}
	// wait advances the clock by a minute at a time, ticking the stack
	// and sending a request the lockdown or the blacklist denies, and
	// reports the level after the last tick.
	wait := func(minutes int) ids.Level {
		t.Helper()
		for i := 0; i < minutes; i++ {
			clock.Advance(time.Minute)
			st.Tick(clock.Now())
			if w := get(t, h, "/index.html", sources[0]); w.Code != http.StatusForbidden {
				t.Fatalf("blacklisted %s = %d, want 403", sources[0], w.Code)
			}
		}
		return st.Threat.Level()
	}

	expect(phf, sources[0], http.StatusForbidden, ids.Medium)
	expect("/index.html", "10.0.0.5", http.StatusOK, ids.Medium)

	for i := 1; i <= len(sources); i++ {
		expect(phf, fmt.Sprintf("203.0.113.%d", i), http.StatusForbidden, ids.Medium)
	}
	expect("/index.html", "10.0.0.5", http.StatusOK, ids.Medium)

	clock.Advance(10 * time.Second) // still inside the correlator's window
	for _, ip := range sources[1:] {
		if w := get(t, h, phf, ip); w.Code != http.StatusForbidden {
			t.Fatalf("phf from %s = %d, want 403", ip, w.Code)
		}
	}
	expect("/index.html", "10.0.0.5", http.StatusForbidden, ids.High)

	if got := wait(4); got != ids.High {
		t.Fatalf("level = %s four minutes into the lockdown, want high", got)
	}
	if got := wait(1); got != ids.Medium {
		t.Fatalf("level = %s five quiet minutes into the lockdown, want medium", got)
	}
	if got := wait(4); got != ids.Medium {
		t.Fatalf("level = %s four minutes after the step to medium, want medium", got)
	}
	if got := wait(1); got != ids.Low {
		t.Fatalf("level = %s after a second quiet five minutes, want low", got)
	}
	expect("/index.html", "10.0.0.5", http.StatusOK, ids.Low)
}

// TestSpoofedProbeLeavesTheLevel: on the default deployment a phf probe
// from a spoof-suspected source is denied, but its set_threat_level, like
// its update_log, is skipped, so the level stays low.
func TestSpoofedProbeLeavesTheLevel(t *testing.T) {
	o, err := parseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	o.stack.AccessLog = io.Discard
	o.stack.SpoofedSources = []string{"203.0.113.*"}
	st, err := build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if w := get(t, st.Handler(), "/cgi-bin/phf?Qalias=x", "203.0.113.7"); w.Code != http.StatusForbidden {
		t.Fatalf("phf from a spoofed source = %d, want 403", w.Code)
	}
	if got := st.Threat.Level(); got != ids.Low {
		t.Errorf("threat level = %s after a spoofed phf probe, want low", got)
	}
}
