package gaa

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"gaaapi/internal/eacl"
)

func TestRequestResultConditionsSeeDecision(t *testing.T) {
	a, log := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
neg_access_right apache *
pre_cond_sel_yes local
rr_cond_record local on:failure/denied
rr_cond_record local on:success/granted
`))
	checkAuth(t, a, p, simpleRequest())
	got := log.all()
	want := []string{"denied:no"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rr activations = %v, want %v", got, want)
	}
}

func TestRequestResultOnSuccessFires(t *testing.T) {
	a, log := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
rr_cond_record local on:success/granted
rr_cond_record local on:failure/denied
`))
	checkAuth(t, a, p, simpleRequest())
	if got, want := log.all(), []string{"granted:yes"}; !reflect.DeepEqual(got, want) {
		t.Errorf("rr activations = %v, want %v", got, want)
	}
}

func TestRequestResultSkippedWhenNoEntryFires(t *testing.T) {
	a, log := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
neg_access_right apache *
pre_cond_sel_no local
rr_cond_record local on:any/should-not-run
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Fatalf("decision = %v, want maybe", ans.Decision)
	}
	if got := log.all(); len(got) != 0 {
		t.Errorf("rr conditions of inapplicable entry fired: %v", got)
	}
}

// Paper section 6 step 2c: the final status is the conjunction of the
// pre-condition result and the request-result outcomes.
func TestRequestResultFailureConjoinsIntoStatus(t *testing.T) {
	a := New()
	a.RegisterFunc("failing_action", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return Outcome{Result: No, Class: ClassAction, Detail: "notification failed"}
	})
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
rr_cond_failing_action local
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != No {
		t.Errorf("decision = %v, want no (rr failure conjoined)", ans.Decision)
	}
}

func TestAnswerCarriesMidAndPostBlocks(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_sel_yes local
mid_cond_quota local cpu_ms<=50
mid_cond_quota local output_bytes<=4096
post_cond_record local on:any/done
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if len(ans.Mid) != 2 {
		t.Errorf("mid conditions = %d, want 2", len(ans.Mid))
	}
	if len(ans.Post) != 1 {
		t.Errorf("post conditions = %d, want 1", len(ans.Post))
	}
}

func TestExecutionControlEvaluatesMidConditions(t *testing.T) {
	a := New()
	a.RegisterFunc("quota", AuthorityAny, func(_ context.Context, c eacl.Condition, r *Request) Outcome {
		// Tiny quota language for the test: "cpu_ms<=N".
		if c.Value == "cpu_ms<=50" {
			if n, ok := r.Params.GetInt(ParamCPUMillis, AuthorityAny); ok && n <= 50 {
				return MetOutcome(ClassRequirement, "within quota")
			}
			return FailedOutcome(ClassRequirement, "quota exceeded")
		}
		return UnevaluatedOutcome("unknown quota")
	})
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
mid_cond_quota local cpu_ms<=50
`))
	req := simpleRequest()
	req.Trace = true
	ans := checkAuth(t, a, p, req)
	if ans.Decision != Yes {
		t.Fatalf("decision = %v, want yes", ans.Decision)
	}

	within := Param{Type: ParamCPUMillis, Authority: AuthorityAny, Value: "10"}
	dec, trace := a.ExecutionControl(context.Background(), ans, req, within)
	if dec != Yes || len(trace) > 0 {
		t.Errorf("within quota: decision = %v, trace %v; want yes, no trace", dec, trace)
	}
	// The specification writes the trace of a traced request.
	if dec, trace := a.ReferenceExecutionControl(context.Background(), ans, req, within); dec != Yes || len(trace) != 1 {
		t.Errorf("specification within quota: decision = %v, trace = %v; want yes, one event", dec, trace)
	}

	dec, _ = a.ExecutionControl(context.Background(), ans, req,
		Param{Type: ParamCPUMillis, Authority: AuthorityAny, Value: "500"})
	if dec != No {
		t.Errorf("over quota: decision = %v, want no", dec)
	}
}

func TestExecutionControlNoMidConditionsIsYes(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, "pos_access_right apache *"))
	req := simpleRequest()
	ans := checkAuth(t, a, p, req)
	if dec, trace := a.ExecutionControl(context.Background(), ans, req); dec != Yes || trace != nil {
		t.Errorf("ExecutionControl = %v, %v; want yes, nil", dec, trace)
	}
}

func TestPostExecutionActionsSeeOperationStatus(t *testing.T) {
	a, log := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
post_cond_record local on:failure/op-failed
post_cond_record local on:success/op-ok
`))
	req := simpleRequest()
	ans := checkAuth(t, a, p, req)

	// The record evaluator keys on req.Decision; PostExecutionActions
	// must surface the operation status there via OpStatus handling.
	// Our test evaluator uses Decision, so emulate the paper's contract
	// through the op_status parameter instead.
	a.RegisterFunc("record", AuthorityAny, func(_ context.Context, c eacl.Condition, r *Request) Outcome {
		st, _ := r.Params.Get(ParamOpStatusName, AuthorityAny)
		switch {
		case c.Value == "on:failure/op-failed" && st == "no":
			log.add("op-failed")
		case c.Value == "on:success/op-ok" && st == "yes":
			log.add("op-ok")
		}
		return MetOutcome(ClassAction, "recorded")
	})

	if dec, _ := a.PostExecutionActions(context.Background(), ans, req, No); dec != Yes {
		t.Errorf("post decision = %v, want yes", dec)
	}
	if got, want := log.all(), []string{"op-failed"}; !reflect.DeepEqual(got, want) {
		t.Errorf("post activations = %v, want %v", got, want)
	}

	if dec, _ := a.PostExecutionActions(context.Background(), ans, req, Yes); dec != Yes {
		t.Errorf("post decision = %v, want yes", dec)
	}
	if got, want := log.all(), []string{"op-failed", "op-ok"}; !reflect.DeepEqual(got, want) {
		t.Errorf("post activations = %v, want %v", got, want)
	}
}

func TestPostExecutionNoConditionsIsYes(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, "pos_access_right apache *"))
	req := simpleRequest()
	ans := checkAuth(t, a, p, req)
	if dec, _ := a.PostExecutionActions(context.Background(), ans, req, Yes); dec != Yes {
		t.Errorf("decision = %v, want yes", dec)
	}
}

func TestCheckAuthorizationNilPolicy(t *testing.T) {
	a, _ := newTestAPI(t)
	if _, err := a.CheckAuthorization(context.Background(), nil, simpleRequest()); err == nil {
		t.Error("want error for nil policy")
	}
}

func TestWithClock(t *testing.T) {
	fixed := time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC)
	a := New(WithClock(func() time.Time { return fixed }))
	var seen time.Time
	a.RegisterFunc("probe", AuthorityAny, func(_ context.Context, _ eacl.Condition, r *Request) Outcome {
		seen = r.Time
		return MetOutcome(ClassSelector, "")
	})
	p := localPolicy(mustEACL(t, "pos_access_right apache *\npre_cond_probe local"))
	checkAuth(t, a, p, simpleRequest())
	if !seen.Equal(fixed) {
		t.Errorf("condition saw time %v, want %v", seen, fixed)
	}
	if !a.Now().Equal(fixed) {
		t.Errorf("Now() = %v, want %v", a.Now(), fixed)
	}
}

func TestRequestTimePreserved(t *testing.T) {
	a, _ := newTestAPI(t)
	explicit := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	var seen time.Time
	a.RegisterFunc("probe", AuthorityAny, func(_ context.Context, _ eacl.Condition, r *Request) Outcome {
		seen = r.Time
		return MetOutcome(ClassSelector, "")
	})
	p := localPolicy(mustEACL(t, "pos_access_right apache *\npre_cond_probe local"))
	req := simpleRequest()
	req.Time = explicit
	checkAuth(t, a, p, req)
	if !seen.Equal(explicit) {
		t.Errorf("condition saw %v, want explicit %v", seen, explicit)
	}
}

func TestCheckAuthorizationDoesNotMutateRequest(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
neg_access_right apache *
rr_cond_record local on:any/x
`))
	req := simpleRequest()
	checkAuth(t, a, p, req)
	if req.Decision != 0 {
		t.Errorf("caller's request mutated: Decision = %v", req.Decision)
	}
	if !req.Time.IsZero() {
		t.Errorf("caller's request mutated: Time = %v", req.Time)
	}
}

func TestRegisteredAndKnown(t *testing.T) {
	a := New()
	a.RegisterFunc("regex", "gnu", func(context.Context, eacl.Condition, *Request) Outcome {
		return MetOutcome(ClassSelector, "")
	})
	if !a.Known("regex", "gnu") {
		t.Error("Known(regex, gnu) = false")
	}
	if a.Known("regex", "other") {
		t.Error("Known(regex, other) = true, want false (no wildcard registered)")
	}
	a.RegisterFunc("regex", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return MetOutcome(ClassSelector, "")
	})
	if !a.Known("regex", "other") {
		t.Error("Known should fall back to wildcard authority")
	}
}

// TestPhaseSkipsActionsThatCannotFire: an action whose trigger cannot
// fire for the phase status is not called, traced or not; one that
// fires is. The specification calls every action, so its trace of a
// traced request shows the unmatched trigger's answer.
func TestPhaseSkipsActionsThatCannotFire(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var calls, fired atomic.Int64
		a := New()
		a.Register("audit", AuthorityAny, failureAudit{&calls, &fired})
		p := memPolicy(t, a, "pos_access_right apache *\nrr_cond_audit local on:failure\npost_cond_audit local on:failure\n")
		req := simpleRequest()
		req.Trace = traced
		ans := checkAuth(t, a, p, req)
		if ans.Decision != Yes || calls.Load() != 0 || len(ans.Trace) > 0 {
			t.Errorf("traced=%v: grant = %v after %d audit calls, trace %v; want yes after none, no trace", traced, ans.Decision, calls.Load(), ans.Trace)
		}
		if dec, trace := a.PostExecutionActions(context.Background(), ans, req, Yes); dec != Yes || calls.Load() != 0 || len(trace) > 0 {
			t.Errorf("traced=%v: post after success = %v, %d calls, trace %v", traced, dec, calls.Load(), trace)
		}
		if dec, _ := a.PostExecutionActions(context.Background(), ans, req, No); dec != Yes || calls.Load() != 1 || fired.Load() != 1 {
			t.Errorf("traced=%v: post after failure = %v, %d calls, %d fired; want yes, the audit fired", traced, dec, calls.Load(), fired.Load())
		}
		if !traced {
			continue
		}
		spec := a.ReferenceCheck(context.Background(), p, req)
		if n := len(spec.Trace); spec.Decision != Yes || n == 0 || spec.Trace[n-1].Outcome.Detail != "trigger not matched" {
			t.Errorf("specification's traced grant = %v, trace %v; want yes, the unmatched trigger last", spec.Decision, spec.Trace)
		}
		if dec, trace := a.ReferencePostExecutionActions(context.Background(), spec, req, Yes); dec != Yes || len(trace) != 1 {
			t.Errorf("specification's post after success = %v, trace %v; want yes, the unmatched trigger", dec, trace)
		}
	}
}

// TestPhaseRunsHoistedMidTestsInline: a hoisted mid-condition runs its
// compiled test, whether the usage comes apart or after the request's
// own parameters, traced or not; the specification calls its evaluator
// and traces.
func TestPhaseRunsHoistedMidTestsInline(t *testing.T) {
	var comp, interp atomic.Int64
	a := New()
	a.Register("fastyes", AuthorityAny, fastEval{out: MetOutcome(ClassRequirement, "yes"), compiled: &comp, interp: &interp})
	a.Register("quota", AuthorityAny, usageQuota{})
	p := memPolicy(t, a, "pos_access_right apache *\nmid_cond_fastyes local\nmid_cond_quota local cpu_ms<=50\n")
	req := simpleRequest()
	ans := checkAuth(t, a, p, req)
	cpu := func(v string) Param { return Param{Type: ParamCPUMillis, Authority: AuthorityAny, Value: v} }
	inline := simpleRequest(cpu("80"))
	inline.Time = time.Date(2026, time.March, 4, 15, 30, 0, 0, time.UTC)
	if dec, _ := a.ExecutionControl(context.Background(), ans, req, cpu("20")); dec != Yes {
		t.Errorf("within quota = %v, want yes", dec)
	}
	if dec, _ := a.ExecutionControl(context.Background(), ans, inline); dec != No {
		t.Errorf("usage in the request, over quota = %v, want no", dec)
	}
	if comp.Load() != 2 || interp.Load() != 0 {
		t.Errorf("hoisted %d, evaluator %d calls; want 2 and 0", comp.Load(), interp.Load())
	}
	req.Trace = true
	if dec, trace := a.ExecutionControl(context.Background(), ans, req); dec != Maybe || len(trace) > 0 || comp.Load() != 3 || interp.Load() != 0 {
		t.Errorf("traced, usage missing = %v with %d events, %d hoisted, %d evaluator calls; want maybe, no trace, 3 and 0", dec, len(trace), comp.Load(), interp.Load())
	}
	if dec, trace := a.ReferenceExecutionControl(context.Background(), ans, req); dec != Maybe || len(trace) != 2 || interp.Load() != 1 {
		t.Errorf("specification, usage missing = %v with %d events, %d evaluator calls; want maybe, 2 events, 1 call", dec, len(trace), interp.Load())
	}
}

// TestPhaseAfterRegistrationCompilesAfresh: a registration between the
// check and a later phase is seen by that phase, as the registry is by
// every evaluation.
func TestPhaseAfterRegistrationCompilesAfresh(t *testing.T) {
	a := New()
	p := memPolicy(t, a, "pos_access_right apache *\nmid_cond_late local\n")
	req := simpleRequest()
	ans := checkAuth(t, a, p, req)
	if dec, _ := a.ExecutionControl(context.Background(), ans, req); dec != Maybe {
		t.Fatalf("unregistered mid-condition = %v, want maybe", dec)
	}
	a.RegisterFunc("late", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return FailedOutcome(ClassRequirement, "late")
	})
	if dec, _ := a.ExecutionControl(context.Background(), ans, req); dec != No {
		t.Errorf("mid-condition registered after the check = %v, want no", dec)
	}
}
