package ids

import (
	"fmt"
	"testing"
	"time"
)

// TestCorrelatorBoundedMemory is the regression test for the
// unbounded-slice bug: under sustained threatening traffic the old
// implementation retained every event timestamp inside the window
// (rate x window timestamps); the rings must stay pinned at exactly
// the escalation thresholds however much traffic, from however many
// sources, flows.
func TestCorrelatorBoundedMemory(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	cfg := CorrelatorConfig{
		Window:      time.Minute,
		MediumAfter: 5,
		HighAfter:   2,
		Clock:       clock,
	}
	c := NewCorrelator(NewManager(Low), cfg)

	// 200k events at 1ms spacing from 1000 sources: all within the
	// window at all times.
	for i := 0; i < 200_000; i++ {
		now = now.Add(time.Millisecond)
		sev := SevMedium
		if i%3 == 0 {
			sev = SevHigh
		}
		c.Observe(Report{Kind: DetectedAttack, Severity: sev, ClientIP: fmt.Sprintf("10.0.%d.%d", i%1000/250, i%250)})
	}

	c.mu.Lock()
	mediumLen, mediumCap := len(c.medium.buf), cap(c.medium.buf)
	highLen, highCap := len(c.high.buf), cap(c.high.buf)
	c.mu.Unlock()
	if mediumLen != cfg.MediumAfter || mediumCap != cfg.MediumAfter {
		t.Fatalf("medium ring holds %d of %d sources, want exactly %d", mediumLen, mediumCap, cfg.MediumAfter)
	}
	if highLen != cfg.HighAfter || highCap != cfg.HighAfter {
		t.Fatalf("high ring holds %d of %d sources, want exactly %d", highLen, highCap, cfg.HighAfter)
	}
	if got := c.mgr.Level(); got != High {
		t.Fatalf("sustained attack traffic left level %s, want high", got)
	}
}

// TestCorrelatorRingSemanticsMatchWindowCount proves the ring
// formulation is equivalent to counting distinct sources in the
// window: the K-th most recently seen source being seen inside the
// window IS count >= K, and a source seen again counts once, at its
// latest event.
func TestCorrelatorRingSemanticsMatchWindowCount(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	cfg := CorrelatorConfig{Window: time.Minute, MediumAfter: 3, HighAfter: 99, Clock: clock}
	c := NewCorrelator(NewManager(Low), cfg)

	from := func(ip string) Report {
		return Report{Kind: ThresholdViolation, Severity: SevMedium, ClientIP: ip}
	}
	// Two sources, then a gap that pushes the first out of the window:
	// a third source must NOT escalate (only 2 in window) ...
	c.Observe(from("10.0.0.1"))
	now = now.Add(10 * time.Second)
	c.Observe(from("10.0.0.2"))
	now = now.Add(55 * time.Second)
	if got := c.Observe(from("10.0.0.3")); got != Low {
		t.Fatalf("2 sources in window escalated to %s", got)
	}
	// ... nor does a repeat from a source already in the window ...
	now = now.Add(time.Second)
	if got := c.Observe(from("10.0.0.3")); got != Low {
		t.Fatalf("a repeat from one source escalated to %s", got)
	}
	// ... but a source back after the gap makes 3-in-window.
	now = now.Add(time.Second)
	if got := c.Observe(from("10.0.0.1")); got != Medium {
		t.Fatalf("3 sources in window left level %s, want medium", got)
	}
}
