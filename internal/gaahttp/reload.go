package gaahttp

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gaaapi/internal/eacl"
	"gaaapi/internal/eacl/analysis"
	"gaaapi/internal/gaa"
)

// PolicyBundle is a fully parsed candidate policy set: the sources the
// guard would serve from, plus the parsed EACLs the analyzer vets
// before any request sees them.
type PolicyBundle struct {
	// System and Local are the replacement sources.
	System, Local gaa.PolicySource
	// SystemEACLs and LocalEACLs are the parsed policies for analysis.
	SystemEACLs, LocalEACLs []*eacl.EACL
}

// BundleFromStrings parses a candidate policy set from source text: the
// system-wide EACL ("" for none) and local EACLs keyed by object glob.
// A parse error rejects the bundle before analysis.
func BundleFromStrings(system string, locals map[string]string) (*PolicyBundle, error) {
	b := &PolicyBundle{}
	sysMem := gaa.NewMemorySource()
	if system != "" {
		e, err := eacl.ParseString(system)
		if err != nil {
			return nil, fmt.Errorf("system policy: %w", err)
		}
		sysMem.Add("*", e)
		b.SystemEACLs = append(b.SystemEACLs, e)
	}
	b.System = sysMem
	locMem := gaa.NewMemorySource()
	patterns := make([]string, 0, len(locals))
	for p := range locals {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	for _, p := range patterns {
		e, err := eacl.ParseString(locals[p])
		if err != nil {
			return nil, fmt.Errorf("local policy %q: %w", p, err)
		}
		locMem.Add(p, e)
		b.LocalEACLs = append(b.LocalEACLs, e)
	}
	b.Local = locMem
	return b, nil
}

// HealthObserver receives one per-request health observation; the
// guard reports a request as bad when the decision degraded (MAYBE,
// evaluator faults, or a retrieval error).
type HealthObserver interface {
	Observe(bad bool)
}

// health is a sliding window over the last healthWindow request-health
// observations.
type health struct {
	mu   sync.Mutex
	ring []bool
	n    int // filled
	idx  int
	bad  int
}

// The health probe's fixed tuning.
const (
	// healthWindow is how many recent observations the pre-swap
	// baseline covers.
	healthWindow = 128
	// probeWindow is how many post-swap observations the probe collects
	// before judging the new policy.
	probeWindow = 64
	// probeBadLimit is the degraded-request fraction above which the
	// probe rolls back.
	probeBadLimit = 0.5
	// probeMargin is how much worse than the pre-swap baseline the
	// probe must be, in addition to probeBadLimit, to roll back: a
	// workload that was already degraded does not condemn the new
	// policy.
	probeMargin = 0.10
)

func newHealth() *health {
	return &health{ring: make([]bool, healthWindow)}
}

// Observe records one request outcome.
func (h *health) Observe(bad bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == len(h.ring) {
		if h.ring[h.idx] {
			h.bad--
		}
	} else {
		h.n++
	}
	h.ring[h.idx] = bad
	if bad {
		h.bad++
	}
	h.idx = (h.idx + 1) % len(h.ring)
}

// Rate returns the bad-observation fraction over the window (0 when
// empty) and the number of observations it covers.
func (h *health) Rate() (rate float64, observations int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0, 0
	}
	return float64(h.bad) / float64(h.n), h.n
}

// ReloadConfig assembles a Reloader.
type ReloadConfig struct {
	// Load parses a fresh candidate bundle (from disk, memory, ...).
	Load func() (*PolicyBundle, error)
	// System and Local are the live swap points the guard serves from.
	System, Local *gaa.SwappableSource
	// Known is the registration vocabulary for analysis (api.Known);
	// nil disables registration-dependent rules.
	Known func(condType, defAuth string) bool
}

// ReloadResult is the outcome of one reload attempt.
type ReloadResult struct {
	// OK reports that the candidate passed analysis and was swapped in.
	OK bool `json:"ok"`
	// Generation is the live swap generation after the attempt.
	Generation uint64 `json:"generation"`
	// Err is the parse/load error that rejected the attempt ("" when
	// analysis or the swap decided).
	Err string `json:"error,omitempty"`
	// Diagnostics are the analyzer findings (rejecting errors, or
	// ride-along warnings on success).
	Diagnostics []string `json:"diagnostics,omitempty"`
	// Probation reports that the health probe is now watching the new
	// policy and may still roll it back.
	Probation bool `json:"probation,omitempty"`
}

// ReloadStats summarize a Reloader's history for status endpoints.
type ReloadStats struct {
	Attempts      uint64 `json:"attempts"`
	Applied       uint64 `json:"applied"`
	Rejected      uint64 `json:"rejected"`
	AutoRollbacks uint64 `json:"auto_rollbacks"`
	// Generation is the live swap generation.
	Generation uint64 `json:"generation"`
	// Probation reports an armed post-swap health probe.
	Probation bool `json:"probation,omitempty"`
	// LastError and LastDiagnostics describe the most recent rejected
	// attempt.
	LastError       string   `json:"last_error,omitempty"`
	LastDiagnostics []string `json:"last_diagnostics,omitempty"`
}

// Reloader validates and atomically applies policy reloads, and rolls
// them back when the post-swap health probe degrades. It also
// implements HealthObserver: wire it into the guard's Health hook.
type Reloader struct {
	cfg      ReloadConfig
	analyzer *analysis.Analyzer
	// health is the request-health window backing the post-swap probe.
	health *health

	mu    sync.Mutex
	stats ReloadStats

	// probingFlag mirrors probing so Observe can skip the mutex on the
	// (overwhelmingly common) non-probation path.
	probingFlag atomic.Bool

	// probation state, guarded by mu.
	probing              bool
	probeBad, probeTotal int
	baselineRate         float64
	prevSystem           gaa.PolicySource
	prevLocal            gaa.PolicySource
}

// NewReloader builds a reloader; System and Local are required.
func NewReloader(cfg ReloadConfig) *Reloader {
	return &Reloader{cfg: cfg, analyzer: analysis.New(), health: newHealth()}
}

// Stats returns the reload history.
func (r *Reloader) Stats() ReloadStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Generation = r.cfg.Local.Generation()
	st.Probation = r.probing
	return st
}

// Reload loads a candidate via the configured loader, analyzes it, and
// — only if no finding reaches severity error — atomically swaps it
// in, arming the health probe. On rejection the previous policy keeps
// serving untouched.
func (r *Reloader) Reload() ReloadResult { return r.ReloadWith(r.cfg.Load) }

// ReloadWith is Reload with an explicit candidate loader (e.g. a new
// in-memory policy set).
func (r *Reloader) ReloadWith(load func() (*PolicyBundle, error)) ReloadResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Attempts++

	fail := func(err string, diags []string) ReloadResult {
		r.stats.Rejected++
		r.stats.LastError = err
		r.stats.LastDiagnostics = diags
		return ReloadResult{
			Generation:  r.cfg.Local.Generation(),
			Err:         err,
			Diagnostics: diags,
		}
	}

	if load == nil {
		return fail("no policy loader configured", nil)
	}
	bundle, err := load()
	if err != nil {
		return fail(err.Error(), nil)
	}
	diags := r.analyze(bundle)
	rendered := make([]string, len(diags))
	blocking := false
	for i, d := range diags {
		rendered[i] = d.String()
		if d.Severity >= analysis.SeverityError {
			blocking = true
		}
	}
	if blocking {
		return fail("analysis rejected the candidate policy set", rendered)
	}

	// Passed: swap atomically. In-flight requests finish on the old
	// sources; the generation bump invalidates the policy cache for
	// everything after.
	baseline, _ := r.health.Rate()
	prevSys, _ := r.cfg.System.Swap(bundle.System)
	prevLoc, gen := r.cfg.Local.Swap(bundle.Local)
	r.stats.Applied++
	r.stats.LastError = ""
	r.stats.LastDiagnostics = rendered
	r.probing = true
	r.probingFlag.Store(true)
	r.probeBad, r.probeTotal = 0, 0
	r.baselineRate = baseline
	r.prevSystem, r.prevLocal = prevSys, prevLoc
	return ReloadResult{OK: true, Generation: gen, Diagnostics: rendered, Probation: true}
}

// analyze runs the full file-level and composition-level rule catalog
// over a candidate bundle.
func (r *Reloader) analyze(b *PolicyBundle) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, e := range b.SystemEACLs {
		out = append(out, r.analyzer.AnalyzeFile(&analysis.File{EACL: e, Known: r.cfg.Known})...)
	}
	for _, e := range b.LocalEACLs {
		out = append(out, r.analyzer.AnalyzeFile(&analysis.File{EACL: e, Known: r.cfg.Known})...)
	}
	out = append(out, r.analyzer.AnalyzeComposition(analysis.NewComposition(b.SystemEACLs, b.LocalEACLs))...)
	return out
}

// Observe implements HealthObserver: it feeds the sliding window and,
// during probation, judges the freshly swapped policy — rolling it
// back if the degraded-request rate exceeds both the absolute limit
// and the pre-swap baseline by the margin.
func (r *Reloader) Observe(bad bool) {
	r.health.Observe(bad)
	if !r.probingFlag.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.probing {
		return
	}
	r.probeTotal++
	if bad {
		r.probeBad++
	}
	if r.probeTotal < probeWindow {
		return
	}
	rate := float64(r.probeBad) / float64(r.probeTotal)
	if rate > probeBadLimit && rate > r.baselineRate+probeMargin {
		r.rollbackLocked()
		r.stats.AutoRollbacks++
		r.stats.LastError = fmt.Sprintf(
			"health probe rolled back reload: degraded rate %.2f (baseline %.2f) over %d requests",
			rate, r.baselineRate, r.probeTotal)
	}
	r.probing = false
	r.probingFlag.Store(false)
	r.prevSystem, r.prevLocal = nil, nil
}

func (r *Reloader) rollbackLocked() {
	if r.prevSystem != nil {
		r.cfg.System.Swap(r.prevSystem)
	}
	if r.prevLocal != nil {
		r.cfg.Local.Swap(r.prevLocal)
	}
}
