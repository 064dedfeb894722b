package gaahttp

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/policies/paper"
)

// The two tests below run on one P, the benchmark's pinned
// configuration: an IDS consumer that ran beside the request instead of
// on it would get no CPU until the request goroutine yielded, so any
// queue between them would fill and drop. Neither test sleeps.

// TestHostIDSSeesProbeInBurst: phf probes from HighAfter distinct
// sources, each buried in a burst of grants, escalate the threat level,
// and the tuner tightens @max_input, before the last probe's ServeHTTP
// returns.
func TestHostIDSSeesProbeInBurst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st, err := NewStack(StackConfig{
		SystemPolicy:  paper.System72,
		LocalPolicies: map[string]string{"*": policy72Local},
		DocRoot:       map[string]string{"/index.html": "home"},
		RuntimeValues: map[string]string{"max_input": "1000"},
		LevelValues:   tunedLevels,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const n = 1000
	grants := func() {
		t.Helper()
		for i := 0; i < n; i++ {
			if code := serveTarget(t, st, "/index.html", fmt.Sprintf("10.0.%d.%d", i/250, i%250)); code != http.StatusOK {
				t.Fatalf("grant %d = %d, want 200", i, code)
			}
		}
	}
	probes := ids.DefaultCorrelatorConfig().HighAfter
	for i := 0; i < probes; i++ {
		grants()
		if got := st.Threat.Level(); got != ids.Low {
			t.Fatalf("level = %s after %d probes and their grants, want low", got, i)
		}
		if code := serveTarget(t, st, "/cgi-bin/phf?Qalias=x", fmt.Sprintf("192.0.2.%d", 66+i)); code != http.StatusForbidden {
			t.Fatalf("phf probe = %d, want 403", code)
		}
	}
	if got := st.Threat.Level(); got != ids.High {
		t.Fatalf("level = %s when the probe from the %d-th source returned, want high", got, probes)
	}
	if got := maxInput(t, st); got != "100" {
		t.Fatalf("max_input = %q when the probe returned, want the high bound 100", got)
	}
	grants()
	if got := st.Threat.Level(); got != ids.High {
		t.Fatalf("level = %s after the trailing grants, want high", got)
	}
}

// TestScorerSeesEverySampleInBurst: a scanner's phf probes, each behind
// a crowd of grants, are blocked at the same probe as with no crowd,
// and the scorer counts every request that reached the guard.
func TestScorerSeesEverySampleInBurst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const scanner = "203.0.113.99"
	// run returns the 1-based probe at which the scanner was blocked.
	run := func(crowd int) int {
		t.Helper()
		clock := &simClock{now: time.Date(2003, 5, 1, 9, 0, 0, 0, time.UTC)}
		acfg := adaptive.Defaults()
		st, err := NewStack(StackConfig{
			SystemPolicy:  paper.System72,
			LocalPolicies: map[string]string{"*": policy72Local},
			DocRoot:       map[string]string{"/index.html": "home"},
			Clock:         clock.Now,
			Adaptive:      &acfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()

		reached := uint64(0)
		for probe := 1; probe <= 40; probe++ {
			for i := 0; i < crowd; i++ {
				if code := serveTarget(t, st, "/index.html", fmt.Sprintf("10.1.%d.%d", i%1000/250, i%250)); code != http.StatusOK {
					t.Fatalf("crowd grant = %d, want 200", code)
				}
				reached++
			}
			clock.Advance(50 * time.Millisecond)
			serveTarget(t, st, fmt.Sprintf("/cgi-bin/phf/probe%d", probe), scanner)
			reached++
			if got := st.Scorer.Stats().Samples; got != reached {
				t.Fatalf("crowd %d, probe %d: scorer counted %d samples, %d requests reached the guard", crowd, probe, got, reached)
			}
			if st.Blocks.Blocked(scanner) {
				if n := st.Blocks.Len(); n != 1 {
					t.Fatalf("crowd %d: %d sources blocked, want only the scanner", crowd, n)
				}
				return probe
			}
		}
		t.Fatalf("crowd %d: scanner never blocked; score %v", crowd, st.Scorer.SourceScore(scanner))
		return 0
	}
	alone := run(0)
	if inCrowd := run(1000); inCrowd != alone {
		t.Fatalf("scanner blocked at probe %d behind a crowd of 1000, at probe %d alone", inCrowd, alone)
	}
	t.Logf("scanner blocked at probe %d, alone and in a crowd", alone)
}
