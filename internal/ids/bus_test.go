package ids

import (
	"fmt"
	"testing"
)

func TestBusPublishSubscribe(t *testing.T) {
	b := NewBus()
	var got []Report
	b.OnReport(func(r Report) { got = append(got, r) })

	b.Publish(Report{Kind: DetectedAttack, Signature: "phf"})
	if len(got) != 1 || got[0].Signature != "phf" {
		t.Fatalf("delivered %+v, want the phf report before Publish returned", got)
	}
	if b.Published() != 1 {
		t.Errorf("Published() = %d, want 1", b.Published())
	}
}

// TestBusListenerSeesEveryReport: a burst far beyond any queue depth
// reaches the listener whole and in order — Publish is a call, so there
// is nothing to fill and nothing to drop.
func TestBusListenerSeesEveryReport(t *testing.T) {
	b := NewBus()
	const n = 10000
	seen := 0
	b.OnReport(func(r Report) {
		if r.Confidence != float64(seen) {
			t.Fatalf("report %v delivered as #%d", r.Confidence, seen)
		}
		seen++
	})
	for i := 0; i < n; i++ {
		b.Publish(Report{Kind: LegitimatePattern, Confidence: float64(i)})
	}
	if seen != n {
		t.Errorf("listener saw %d of %d reports", seen, n)
	}
}

func TestBusMultipleSubscribers(t *testing.T) {
	b := NewBus()
	var order []string
	b.OnReport(func(r Report) { order = append(order, "first:"+r.Info) })
	b.OnReport(func(r Report) { order = append(order, "second:"+r.Info) })
	b.Publish(Report{Info: "x"})
	if len(order) != 2 || order[0] != "first:x" || order[1] != "second:x" {
		t.Errorf("fan-out = %v, want both listeners in registration order", order)
	}
}

func TestBusPublishWithoutListeners(t *testing.T) {
	b := NewBus()
	b.Publish(Report{}) // must not panic
	if b.Published() != 1 {
		t.Errorf("Published() = %d, want 1", b.Published())
	}
}

// TestCorrelatorListensOnBus: registered as a listener, the correlator
// has escalated by the time the publishing call returns.
func TestCorrelatorListensOnBus(t *testing.T) {
	mgr := NewManager(Low)
	c := NewCorrelator(mgr, DefaultCorrelatorConfig())
	b := NewBus()
	b.OnReport(func(r Report) { c.Observe(r) })

	b.Publish(Report{Kind: LegitimatePattern, Severity: SevInfo})
	if mgr.Level() != Low {
		t.Fatalf("level = %v after a legitimate report, want low", mgr.Level())
	}
	for i := 0; i < DefaultCorrelatorConfig().HighAfter; i++ {
		b.Publish(Report{Kind: DetectedAttack, Severity: SevHigh, ClientIP: fmt.Sprintf("192.0.2.%d", i)})
	}
	if mgr.Level() != High {
		t.Fatalf("level = %v when Publish returned, want high", mgr.Level())
	}
}
