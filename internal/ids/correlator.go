package ids

import (
	"net/netip"
	"slices"
	"sync"
	"time"
)

// CorrelatorConfig tunes threat-level escalation.
type CorrelatorConfig struct {
	// Window is the sliding window over which sources are counted.
	Window time.Duration
	// MediumAfter is the number of distinct sources with a
	// medium-or-worse attack event within Window that raises the level
	// to Medium.
	MediumAfter int
	// HighAfter is the number of distinct sources with a high-severity
	// attack event within Window that raises the level to High.
	HighAfter int
	// Clock overrides the time source (tests); nil means time.Now.
	Clock func() time.Time
}

// DefaultCorrelatorConfig mirrors a conservative deployment: three
// sources with suspicious events within a minute raise the level to
// Medium, and three with high-severity events mark the system under
// attack. One source moves the level no further than the policy's own
// set_threat_level asks (DESIGN.md, "One transition for the threat
// level").
func DefaultCorrelatorConfig() CorrelatorConfig {
	return CorrelatorConfig{
		Window:      time.Minute,
		MediumAfter: 3,
		HighAfter:   3,
	}
}

// Correlator consumes GAA-API reports and adapts the system threat
// level — the host-IDS role of paper sections 3 and 7.1. It raises the
// level and renews its hold; the level falls only by the manager's
// timed step-down (Manager.Tick). It is safe for concurrent use.
//
// Memory is bounded: escalation only asks whether the K most recently
// seen sources were all seen within the window, so each severity tier
// keeps exactly its threshold's worth of sources — sustained traffic
// cannot grow the working set.
type Correlator struct {
	cfg    CorrelatorConfig
	mgr    *Manager
	clock  func() time.Time
	mu     sync.Mutex
	medium sourceRing // last MediumAfter sources with medium-or-worse events
	high   sourceRing // last HighAfter sources with high-severity events
}

// sourceRing holds the K most recently seen distinct sources, oldest
// first, each with the time it was last seen.
type sourceRing struct {
	buf []sourceHit // len <= cap == K
}

type sourceHit struct {
	src string
	at  time.Time
}

// add records an event from src at t: src becomes the newest entry,
// and a full ring drops its oldest source.
func (r *sourceRing) add(src string, t time.Time) {
	if i := slices.IndexFunc(r.buf, func(h sourceHit) bool { return h.src == src }); i >= 0 {
		r.buf = slices.Delete(r.buf, i, i+1)
	} else if len(r.buf) == cap(r.buf) {
		r.buf = slices.Delete(r.buf, 0, 1)
	}
	r.buf = append(r.buf, sourceHit{src, t})
}

// full reports whether the ring holds its capacity of sources with the
// oldest last seen at or after cutoff — i.e. at least K distinct
// sources had a qualifying event within the window.
func (r *sourceRing) full(cutoff time.Time) bool {
	return len(r.buf) == cap(r.buf) && !r.buf[0].at.Before(cutoff)
}

// sourceKey is what a tier counts as one source: the client address,
// or its /64 for IPv6, the block one host is commonly given.
func sourceKey(ip string) string {
	a, err := netip.ParseAddr(ip)
	if err != nil || !a.Is6() || a.Is4In6() {
		return ip
	}
	p, _ := a.Prefix(64)
	return p.String()
}

// NewCorrelator returns a correlator driving mgr; a zero field of cfg
// takes DefaultCorrelatorConfig's value.
func NewCorrelator(mgr *Manager, cfg CorrelatorConfig) *Correlator {
	d := DefaultCorrelatorConfig()
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	if cfg.Window <= 0 {
		cfg.Window = d.Window
	}
	if cfg.MediumAfter <= 0 {
		cfg.MediumAfter = d.MediumAfter
	}
	if cfg.HighAfter <= 0 {
		cfg.HighAfter = d.HighAfter
	}
	return &Correlator{
		cfg:    cfg,
		mgr:    mgr,
		clock:  clock,
		medium: sourceRing{buf: make([]sourceHit, 0, cfg.MediumAfter)},
		high:   sourceRing{buf: make([]sourceHit, 0, cfg.HighAfter)},
	}
}

// Observe processes one report synchronously and returns the threat
// level after processing. A threatening report counts its source
// toward escalation, and renews the level's hold when it is at least
// as severe as the level: a medium-severity report renews Medium, not
// High, so the denials a lockdown itself causes do not prolong it.
func (c *Correlator) Observe(r Report) Level {
	if !isThreatening(r.Kind) {
		return c.mgr.Level()
	}
	now := c.clock()
	src := sourceKey(r.ClientIP)
	c.mu.Lock()
	cutoff := now.Add(-c.cfg.Window)
	if r.Severity >= SevMedium {
		c.medium.add(src, now)
	}
	if r.Severity >= SevHigh {
		c.high.add(src, now)
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
	// Severities and levels share one scale, info/low to high.
	if Level(r.Severity) >= c.mgr.Level() {
		c.mgr.Renew(now)
	}
	return c.mgr.Level()
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
