package ids

import (
	"context"
	"sync"
	"time"
)

// CorrelatorConfig tunes threat-level escalation.
type CorrelatorConfig struct {
	// Window is the sliding window over which events are counted.
	Window time.Duration
	// MediumAfter is the number of medium-or-worse attack events
	// within Window that raises the level to Medium.
	MediumAfter int
	// HighAfter is the number of high-severity attack events within
	// Window that raises the level to High.
	HighAfter int
	// Decay lowers the level one step after a quiet period of this
	// length; zero disables decay.
	Decay time.Duration
	// Clock overrides the time source (tests); nil means time.Now.
	Clock func() time.Time
}

// DefaultCorrelatorConfig mirrors a conservative deployment: one
// high-severity event within a minute marks the system under attack;
// three suspicious events raise it to Medium.
func DefaultCorrelatorConfig() CorrelatorConfig {
	return CorrelatorConfig{
		Window:      time.Minute,
		MediumAfter: 3,
		HighAfter:   1,
		Decay:       5 * time.Minute,
	}
}

// Correlator consumes GAA-API reports and adapts the system threat
// level — the host-IDS role of paper sections 3 and 7.1. It is safe
// for concurrent use.
//
// Memory is bounded: escalation only asks whether the K most recent
// qualifying events all fall within the window, so each severity tier
// keeps exactly its threshold's worth of timestamps in a fixed ring —
// sustained traffic cannot grow the working set (it used to retain
// every event timestamp inside the window).
type Correlator struct {
	cfg     CorrelatorConfig
	mgr     *Manager
	clock   func() time.Time
	mu      sync.Mutex
	medium  eventRing // last MediumAfter medium-or-worse event times
	high    eventRing // last HighAfter high-severity event times
	lastHit time.Time
}

// eventRing holds the most recent K event timestamps in place.
type eventRing struct {
	buf  []time.Time
	head int // next write position
	n    int // filled entries (<= len(buf))
}

// add records one event time, overwriting the oldest when full.
func (r *eventRing) add(t time.Time) {
	r.buf[r.head] = t
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// full reports whether the ring holds its capacity of events with the
// oldest retained event at or after cutoff — i.e. at least K
// qualifying events landed within the window.
func (r *eventRing) full(cutoff time.Time) bool {
	if r.n < len(r.buf) {
		return false
	}
	oldest := r.buf[r.head] // next overwrite slot == oldest when full
	return !oldest.Before(cutoff)
}

// NewCorrelator returns a correlator driving mgr.
func NewCorrelator(mgr *Manager, cfg CorrelatorConfig) *Correlator {
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	if cfg.MediumAfter <= 0 {
		cfg.MediumAfter = 3
	}
	if cfg.HighAfter <= 0 {
		cfg.HighAfter = 1
	}
	return &Correlator{
		cfg:    cfg,
		mgr:    mgr,
		clock:  clock,
		medium: eventRing{buf: make([]time.Time, cfg.MediumAfter)},
		high:   eventRing{buf: make([]time.Time, cfg.HighAfter)},
	}
}

// Observe processes one report synchronously and returns the threat
// level after processing.
func (c *Correlator) Observe(r Report) Level {
	if !isThreatening(r.Kind) {
		c.maybeDecay()
		return c.mgr.Level()
	}
	now := c.clock()
	c.mu.Lock()
	c.lastHit = now
	cutoff := now.Add(-c.cfg.Window)
	if r.Severity >= SevMedium {
		c.medium.add(now)
	}
	if r.Severity >= SevHigh {
		c.high.add(now)
	}
	escalateHigh := c.high.full(cutoff)
	escalateMedium := c.medium.full(cutoff)
	c.mu.Unlock()

	switch {
	case escalateHigh:
		c.mgr.Escalate(High)
	case escalateMedium:
		c.mgr.Escalate(Medium)
	}
	return c.mgr.Level()
}

// maybeDecay lowers the threat level one step after a quiet period.
func (c *Correlator) maybeDecay() {
	if c.cfg.Decay <= 0 {
		return
	}
	cur := c.mgr.Level() // read before judging quiet: a raise landing after it stands
	c.mu.Lock()
	quietSince := c.lastHit
	c.mu.Unlock()
	if quietSince.IsZero() || c.clock().Sub(quietSince) < c.cfg.Decay {
		return
	}
	if c.mgr.StepDown(cur) {
		c.mu.Lock()
		c.lastHit = c.clock() // restart the quiet period for the next step
		c.mu.Unlock()
	}
}

// Run consumes reports from sub until ctx is cancelled or the
// subscription is closed. Call in a goroutine; it returns when done.
func (c *Correlator) Run(ctx context.Context, sub *Subscription) {
	for {
		select {
		case <-ctx.Done():
			return
		case r, ok := <-sub.C:
			if !ok {
				return
			}
			c.Observe(r)
		}
	}
}

// isThreatening reports whether the report kind contributes to threat
// escalation.
func isThreatening(k ReportKind) bool {
	switch k {
	case IllFormedRequest, AbnormalParameters, SensitiveAccessDenial,
		ThresholdViolation, DetectedAttack, UnusualBehavior:
		return true
	default:
		return false
	}
}
