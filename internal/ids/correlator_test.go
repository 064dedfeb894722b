package ids

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is a manually-advanced time source.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func attackReport(sev Severity) Report {
	return Report{Kind: DetectedAttack, Severity: sev, Signature: "phf"}
}

// attackFrom is attackReport from the client ip.
func attackFrom(ip string, sev Severity) Report {
	r := attackReport(sev)
	r.ClientIP = ip
	return r
}

// TestCorrelatorHighSeverityEscalatesImmediately: under the default
// configuration one source's high-severity reports, however many, do
// not raise the level; the report from the HighAfter-th distinct source
// raises it to high at once.
func TestCorrelatorHighSeverityEscalatesImmediately(t *testing.T) {
	clk := newFakeClock()
	mgr := NewManager(Low)
	cfg := DefaultCorrelatorConfig()
	cfg.Clock = clk.Now
	c := NewCorrelator(mgr, cfg)

	for i := 0; i < 10; i++ {
		if got := c.Observe(attackFrom("192.0.2.1", SevHigh)); got != Low {
			t.Fatalf("level after %d high-severity attacks from one source = %v, want low", i+1, got)
		}
	}
	for i := 2; i < cfg.HighAfter; i++ {
		c.Observe(attackFrom(fmt.Sprintf("192.0.2.%d", i), SevHigh))
	}
	if got := mgr.Level(); got == High {
		t.Fatalf("level = %v after %d sources, want below high", got, cfg.HighAfter-1)
	}
	if got := c.Observe(attackFrom("192.0.2.99", SevHigh)); got != High {
		t.Errorf("level after high-severity attacks from %d sources = %v, want high", cfg.HighAfter, got)
	}
}

func TestCorrelatorMediumNeedsRepeats(t *testing.T) {
	clk := newFakeClock()
	mgr := NewManager(Low)
	cfg := DefaultCorrelatorConfig()
	cfg.Clock = clk.Now
	c := NewCorrelator(mgr, cfg)

	c.Observe(attackFrom("192.0.2.1", SevMedium))
	c.Observe(attackFrom("192.0.2.1", SevMedium))
	c.Observe(attackFrom("192.0.2.1", SevMedium))
	if mgr.Level() != Low {
		t.Fatalf("level after 3 medium events from one source = %v, want low", mgr.Level())
	}
	c.Observe(attackFrom("192.0.2.2", SevMedium))
	c.Observe(attackFrom("192.0.2.3", SevMedium))
	if mgr.Level() != Medium {
		t.Errorf("level after medium events from 3 sources = %v, want medium", mgr.Level())
	}
}

// TestCorrelatorCountsIPv6By64: addresses inside one IPv6 /64 count as
// one source; three /64s count as three.
func TestCorrelatorCountsIPv6By64(t *testing.T) {
	mgr := NewManager(Low)
	c := NewCorrelator(mgr, CorrelatorConfig{MediumAfter: 3, HighAfter: 10, Clock: newFakeClock().Now})
	for _, ip := range []string{"2001:db8:1:1::1", "2001:db8:1:1::2", "2001:db8:1:1:ffff::3"} {
		c.Observe(attackFrom(ip, SevMedium))
	}
	if mgr.Level() != Low {
		t.Fatalf("level after three addresses in one /64 = %v, want low", mgr.Level())
	}
	c.Observe(attackFrom("2001:db8:1:2::1", SevMedium))
	c.Observe(attackFrom("2001:db8:1:3::1", SevMedium))
	if mgr.Level() != Medium {
		t.Errorf("level after three /64s = %v, want medium", mgr.Level())
	}
}

func TestCorrelatorWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	mgr := NewManager(Low)
	cfg := CorrelatorConfig{Window: time.Minute, MediumAfter: 2, HighAfter: 10, Clock: clk.Now}
	c := NewCorrelator(mgr, cfg)

	c.Observe(attackFrom("192.0.2.1", SevMedium))
	clk.Advance(2 * time.Minute) // first event leaves the window
	c.Observe(attackFrom("192.0.2.2", SevMedium))
	if mgr.Level() != Low {
		t.Errorf("level = %v, want low (events outside window must not accumulate)", mgr.Level())
	}
}

// TestCorrelatorDecay: the correlator only raises and renews. A level
// it raised decays by the manager's Tick, one step per quiet hold,
// whatever traffic arrives in between; a report as severe as the level
// renews the hold, a milder one does not.
func TestCorrelatorDecay(t *testing.T) {
	clk := newFakeClock()
	mgr := NewManager(Low, WithManagerClock(clk.Now))
	cfg := CorrelatorConfig{Window: time.Minute, MediumAfter: 10, HighAfter: 1, Clock: clk.Now}
	c := NewCorrelator(mgr, cfg)

	c.Observe(attackReport(SevHigh))
	if mgr.Level() != High {
		t.Fatalf("level = %v, want high", mgr.Level())
	}
	clk.Advance(4 * time.Minute)
	c.Observe(attackReport(SevHigh)) // renews high's hold
	c.Observe(Report{Kind: LegitimatePattern})
	clk.Advance(4 * time.Minute)
	c.Observe(attackReport(SevMedium)) // too mild to renew high
	mgr.Tick(clk.Now())
	if mgr.Level() != High {
		t.Fatalf("level = %v 4m after a renewing report, want high", mgr.Level())
	}
	clk.Advance(time.Minute)
	mgr.Tick(clk.Now())
	if mgr.Level() != Medium {
		t.Errorf("level after a quiet hold = %v, want medium (one-step decay)", mgr.Level())
	}
	clk.Advance(holdPeriod - time.Second)
	mgr.Tick(clk.Now())
	if mgr.Level() != Medium {
		t.Errorf("level = %v before the second hold lapsed, want medium", mgr.Level())
	}
	clk.Advance(time.Second)
	mgr.Tick(clk.Now())
	if mgr.Level() != Low {
		t.Errorf("level after second quiet hold = %v, want low", mgr.Level())
	}
}

func TestCorrelatorLegitimateTrafficNeverEscalates(t *testing.T) {
	clk := newFakeClock()
	mgr := NewManager(Low)
	cfg := DefaultCorrelatorConfig()
	cfg.Clock = clk.Now
	c := NewCorrelator(mgr, cfg)
	for i := 0; i < 100; i++ {
		c.Observe(Report{Kind: LegitimatePattern, Severity: SevInfo})
	}
	if mgr.Level() != Low {
		t.Errorf("level = %v, want low", mgr.Level())
	}
}

func TestCorrelatorDefaultsApplied(t *testing.T) {
	mgr := NewManager(Low)
	c := NewCorrelator(mgr, CorrelatorConfig{})
	if c.cfg.Window <= 0 || c.cfg.MediumAfter <= 0 || c.cfg.HighAfter <= 0 {
		t.Errorf("zero config not defaulted: %+v", c.cfg)
	}
}

func TestIsThreatening(t *testing.T) {
	if isThreatening(LegitimatePattern) {
		t.Error("legitimate_pattern must not be threatening")
	}
	for _, k := range []ReportKind{IllFormedRequest, AbnormalParameters, SensitiveAccessDenial, ThresholdViolation, DetectedAttack, UnusualBehavior} {
		if !isThreatening(k) {
			t.Errorf("%v should be threatening", k)
		}
	}
}
