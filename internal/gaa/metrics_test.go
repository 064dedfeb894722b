package gaa

import (
	"context"
	"strings"
	"testing"

	"gaaapi/internal/eacl"
	"gaaapi/internal/metrics"
)

// metricsAPI builds an API with WithMetrics plus the synthetic
// evaluators of newTestAPI-style tests.
func metricsAPI(t *testing.T, opts ...Option) (*API, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	a := New(append([]Option{WithMetrics(reg)}, opts...)...)
	a.RegisterFunc("sel_yes", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return MetOutcome(ClassSelector, "sel_yes")
	})
	a.RegisterFunc("req_no", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return FailedOutcome(ClassRequirement, "req_no")
	})
	a.RegisterFunc("maybe", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return UnevaluatedOutcome("deliberately unevaluated")
	})
	a.RegisterFunc("quota_yes", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return MetOutcome(ClassRequirement, "within quota")
	})
	a.RegisterFunc("panicky", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		panic("instrumented boom")
	})
	return a, reg
}

func TestMetricsCountsDecisionsPerPhase(t *testing.T) {
	a, reg := metricsAPI(t)
	grant := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_sel_yes local
mid_cond_quota_yes local
post_cond_quota_yes local
`))
	deny := localPolicy(mustEACL(t, `
neg_access_right apache *
pre_cond_sel_yes local
`))
	uncertain := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_maybe local
`))

	ctx := context.Background()
	ansGrant := checkAuth(t, a, grant, simpleRequest())
	checkAuth(t, a, deny, simpleRequest())
	checkAuth(t, a, uncertain, simpleRequest())
	a.ExecutionControl(ctx, ansGrant, simpleRequest())
	a.PostExecutionActions(ctx, ansGrant, simpleRequest(), Yes)

	vals := reg.Values()
	wants := map[string]float64{
		`gaa_decisions_total{decision="yes",phase="check"}`:   1,
		`gaa_decisions_total{decision="no",phase="check"}`:    1,
		`gaa_decisions_total{decision="maybe",phase="check"}`: 1,
		`gaa_decisions_total{decision="yes",phase="mid"}`:     1,
		`gaa_decisions_total{decision="yes",phase="post"}`:    1,
		`gaa_phase_latency_seconds_count{phase="check"}`:      3,
		`gaa_phase_latency_seconds_count{phase="mid"}`:        1,
		`gaa_phase_latency_seconds_count{phase="post"}`:       1,
	}
	for k, want := range wants {
		if got := vals[k]; got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
}

func TestMetricsEmptyPhasesRecordNothing(t *testing.T) {
	a, reg := metricsAPI(t)
	p := localPolicy(mustEACL(t, "pos_access_right apache *"))
	ans := checkAuth(t, a, p, simpleRequest())
	// No mid/post conditions: the phase entry points return early and
	// must not observe a latency or count a decision.
	a.ExecutionControl(context.Background(), ans, simpleRequest())
	a.PostExecutionActions(context.Background(), ans, simpleRequest(), Yes)
	vals := reg.Values()
	for _, k := range []string{
		`gaa_phase_latency_seconds_count{phase="mid"}`,
		`gaa_phase_latency_seconds_count{phase="post"}`,
	} {
		if got := vals[k]; got != 0 {
			t.Errorf("%s = %v, want 0 (phase had no conditions)", k, got)
		}
	}
	if got := vals[`gaa_phase_latency_seconds_count{phase="check"}`]; got != 1 {
		t.Errorf("check count = %v, want 1", got)
	}
}

func TestMetricsFaultCounters(t *testing.T) {
	a, reg := metricsAPI(t)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_panicky local
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Fatalf("decision under panic = %v, want maybe", ans.Decision)
	}
	vals := reg.Values()
	if got := vals[`gaa_evaluator_faults_total{kind="panic"}`]; got != 1 {
		t.Errorf("panic fault counter = %v, want 1", got)
	}
}

func TestMetricsCacheCounters(t *testing.T) {
	a, reg := metricsAPI(t, WithPolicyCache(16))
	src := NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	sys := []PolicySource{src}
	for i := 0; i < 3; i++ {
		if _, err := a.GetObjectPolicyInfo("/x", sys, nil); err != nil {
			t.Fatal(err)
		}
	}
	vals := reg.Values()
	if got := vals["gaa_policy_cache_misses_total"]; got != 1 {
		t.Errorf("misses = %v, want 1", got)
	}
	if got := vals["gaa_policy_cache_hits_total"]; got != 2 {
		t.Errorf("hits = %v, want 2", got)
	}
}

// TestMetricsSampledLatency: with WithMetricsSampling(2) only ~1 in 4
// executions reads the clock, recorded with weight 4 — decision counts
// stay exact, histogram counts are weight-multiples statistically
// centered on the true count.
func TestMetricsSampledLatency(t *testing.T) {
	reg := metrics.NewRegistry()
	a := New(WithMetricsSampling(2), WithMetrics(reg)) // order-independent
	p := localPolicy(mustEACL(t, "pos_access_right apache *"))
	const n = 400
	for i := 0; i < n; i++ {
		checkAuth(t, a, p, simpleRequest())
	}
	vals := reg.Values()
	if got := vals[`gaa_decisions_total{decision="yes",phase="check"}`]; got != n {
		t.Errorf("decisions = %v, want exactly %v (counters are never sampled)", got, n)
	}
	count := vals[`gaa_phase_latency_seconds_count{phase="check"}`]
	if int(count)%4 != 0 {
		t.Errorf("sampled count %v not a multiple of weight 4", count)
	}
	// Binomial(400, 1/4)*4 has mean 400, sigma ~35; 6 sigma bounds.
	if count < 200 || count > 600 {
		t.Errorf("sampled count %v implausibly far from %v", count, n)
	}
}

func TestMetricsExpositionParses(t *testing.T) {
	a, reg := metricsAPI(t)
	p := localPolicy(mustEACL(t, "pos_access_right apache *"))
	checkAuth(t, a, p, simpleRequest())
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	for _, name := range []string{
		MetricPhaseLatency, MetricDecisions, MetricEvaluatorFaults,
		MetricCacheHits, MetricCacheMisses, MetricCacheEvictions,
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing from exposition", name)
		}
	}
	if err := metrics.CheckHistogramInvariants(fams[MetricPhaseLatency]); err != nil {
		t.Error(err)
	}
}
