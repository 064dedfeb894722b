package gaa

import (
	"math/rand/v2"
	"time"

	"gaaapi/internal/metrics"
)

// Metric names exported by WithMetrics. They are part of the
// observability contract (docs/OBSERVABILITY.md) and pinned by golden
// tests — renaming one is a breaking change for dashboards.
const (
	MetricPhaseLatency    = "gaa_phase_latency_seconds"
	MetricDecisions       = "gaa_decisions_total"
	MetricEvaluatorFaults = "gaa_evaluator_faults_total"
	MetricCacheHits       = "gaa_policy_cache_hits_total"
	MetricCacheMisses     = "gaa_policy_cache_misses_total"
	MetricCacheEvictions  = "gaa_policy_cache_evictions_total"
)

// DefaultMetricsSampleShift is the latency sampling the wired
// deployments (gaahttp.Stack, gaa-httpd) use: 1 in 2^3 = 8 phase
// executions reads the clock, recorded with weight 8 so the histogram
// stays statistically unbiased. Decision counters are always exact.
// On a ~1 microsecond cached-grant path the two clock reads dominate
// the instrumentation cost; sampling them keeps the overhead within
// the 5% budget.
const DefaultMetricsSampleShift = 3

// phaseInstruments carries the per-phase hot-path instruments. The
// decision counters are direct pointers indexed by Decision value so
// recording an outcome is one striped atomic add — no map lookup, no
// label rendering, no allocation.
type phaseInstruments struct {
	latency *metrics.Histogram
	// byDecision[Yes|No|Maybe] -> counter. Index 0 is unused (nil):
	// record clamps out-of-range decisions to Maybe, which is what the
	// supervision layer degrades them to anyway.
	byDecision [4]*metrics.Counter
}

// record counts the decision (always) and, when the phase entry
// sampled a start time, the weighted latency observation.
func (p *phaseInstruments) record(sampled bool, start time.Time, weight uint64, dec Decision) {
	if sampled {
		p.latency.ObserveDurationWeighted(time.Since(start), weight)
	}
	idx := int(dec)
	if idx < int(Yes) || idx > int(Maybe) {
		idx = int(Maybe)
	}
	p.byDecision[idx].Inc()
}

// apiInstruments groups the three phases' instruments plus the
// latency sampling configuration (mask 0 = sample every execution).
type apiInstruments struct {
	check, mid, post phaseInstruments
	mask             uint32
	weight           uint64
}

// sampleLatency decides whether this phase execution reads the clock.
// rand.Uint32 uses the per-OS-thread generator: no lock, no alloc.
func (m *apiInstruments) sampleLatency() bool {
	return m.mask == 0 || rand.Uint32()&m.mask == 0
}

// WithMetrics registers this API's observability into reg and turns on
// hot-path instrumentation:
//
//   - gaa_phase_latency_seconds{phase} — evaluation latency histogram
//     per enforcement phase (the paper's section 8 per-phase overhead,
//     measured live);
//   - gaa_decisions_total{phase,decision} — YES/NO/MAYBE outcome
//     counters per phase;
//   - gaa_evaluator_faults_total{kind} — supervision degradations
//     (panic/timeout/error/invalid), collected from SupervisionStats;
//   - gaa_policy_cache_{hits,misses,evictions}_total — composed-policy
//     cache effectiveness, collected from CacheStats.
//
// Instrumentation costs two clock reads and a handful of striped
// atomic adds per phase; the trace-disabled cached-grant path stays
// allocation-free. Phases that have no conditions to run (empty mid or
// post blocks) record nothing. By default every phase execution is
// timed (exact histogram counts); combine with WithMetricsSampling to
// amortize the clock reads on sub-microsecond paths.
func WithMetrics(reg *metrics.Registry) Option {
	return optionFunc(func(a *API) {
		inst := &apiInstruments{weight: 1}
		for _, p := range []struct {
			name string
			pi   *phaseInstruments
		}{
			{"check", &inst.check},
			{"mid", &inst.mid},
			{"post", &inst.post},
		} {
			p.pi.latency = reg.Histogram(MetricPhaseLatency,
				"Evaluation latency per enforcement phase (check=gaa_check_authorization, mid=gaa_execution_control, post=gaa_post_execution_actions).",
				nil, metrics.L("phase", p.name))
			for dec, label := range map[Decision]string{Yes: "yes", No: "no", Maybe: "maybe"} {
				p.pi.byDecision[dec] = reg.Counter(MetricDecisions,
					"Authorization decisions by enforcement phase and tri-state outcome.",
					metrics.L("phase", p.name), metrics.L("decision", label))
			}
		}
		for _, f := range []struct {
			kind string
			fn   func() uint64
		}{
			{"panic", a.sup.panics.Load},
			{"timeout", a.sup.timeouts.Load},
			{"error", a.sup.errors.Load},
			{"invalid", a.sup.invalid.Load},
		} {
			reg.CounterFunc(MetricEvaluatorFaults,
				"Supervised evaluator degradations by fault kind.",
				f.fn, metrics.L("kind", f.kind))
		}
		// Cache funcs read through the API so they stay correct however
		// options are ordered (and report zero with caching off).
		reg.CounterFunc(MetricCacheHits, "Composed-policy cache hits (lock-free fast path).",
			func() uint64 { return a.CacheStats().Hits })
		reg.CounterFunc(MetricCacheMisses, "Composed-policy cache misses (source re-read and re-translation).",
			func() uint64 { return a.CacheStats().Misses })
		reg.CounterFunc(MetricCacheEvictions, "Composed-policy cache evictions (never-hit entries first, then the least recently hit).",
			func() uint64 { return a.CacheStats().Evictions })
		a.metrics = inst
		a.applyMetricsSampling()
	})
}

// WithMetricsSampling sets the phase-latency sampling rate to 1 in
// 2^shift executions, each recorded with weight 2^shift so bucket
// counts, _count and _sum remain statistically exact. Decision
// counters are unaffected (always exact). shift 0 restores exact
// per-execution timing. Order-independent with WithMetrics.
func WithMetricsSampling(shift uint) Option {
	return optionFunc(func(a *API) {
		a.metricsSampleShift = shift
		a.applyMetricsSampling()
	})
}

// applyMetricsSampling resolves the (WithMetrics, WithMetricsSampling)
// pair whichever option ran last.
func (a *API) applyMetricsSampling() {
	if a.metrics == nil {
		return
	}
	a.metrics.mask = 1<<a.metricsSampleShift - 1
	a.metrics.weight = 1 << a.metricsSampleShift
}
