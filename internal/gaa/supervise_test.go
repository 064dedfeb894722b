package gaa

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/eacl"
)

// registerFaulty installs the misbehaving evaluators the supervision
// tests exercise: a panicking one, one that hangs until its context is
// done, one returning an error alongside YES, and one returning a
// decision outside the tri-state range.
func registerFaulty(a *API) {
	a.RegisterFunc("panics", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		panic("kaboom")
	})
	a.RegisterFunc("hangs", AuthorityAny, func(ctx context.Context, _ eacl.Condition, _ *Request) Outcome {
		<-ctx.Done()
		return UnevaluatedOutcome("hang released")
	})
	a.RegisterFunc("errs", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return Outcome{Result: Yes, Err: errors.New("backend down")}
	})
	a.RegisterFunc("invalid", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return Outcome{Result: Decision(97)}
	})
}

func TestSupervisedPanicDegradesToMaybe(t *testing.T) {
	a, _ := newTestAPI(t)
	registerFaulty(a)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_panics local
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Fatalf("decision = %v, want maybe (panic must not decide)", ans.Decision)
	}
	if len(ans.Faults) != 1 {
		t.Fatalf("faults = %+v, want exactly one", ans.Faults)
	}
	f := ans.Faults[0]
	if f.Kind != FaultPanic || f.Cond.Type != "panics" {
		t.Errorf("fault = %+v, want panic on 'panics'", f)
	}
	if !strings.Contains(f.Reason, "kaboom") {
		t.Errorf("reason = %q, want the panic value", f.Reason)
	}
	if got := a.SupervisionStats().Panics; got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
}

func TestSupervisedTimeoutCutsHangingEvaluator(t *testing.T) {
	log := &actionLog{}
	a := New(WithEvaluatorTimeout(10 * time.Millisecond))
	registerFaulty(a)
	a.RegisterFunc("record", AuthorityAny, func(_ context.Context, c eacl.Condition, _ *Request) Outcome {
		log.add(c.Value)
		return MetOutcome(ClassAction, "recorded")
	})
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_hangs local
rr_cond_record local notified
`))
	start := time.Now()
	ans := checkAuth(t, a, p, simpleRequest())
	elapsed := time.Since(start)
	if ans.Decision != Maybe {
		t.Fatalf("decision = %v, want maybe", ans.Decision)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("evaluation took %v: the deadline did not cut the hang", elapsed)
	}
	if len(ans.Faults) != 1 || ans.Faults[0].Kind != FaultTimeout {
		t.Fatalf("faults = %+v, want one timeout", ans.Faults)
	}
	if ans.Faults[0].Reason == "" {
		t.Error("timeout fault must carry a reason")
	}
	if got := a.SupervisionStats().Timeouts; got != 1 {
		t.Errorf("Timeouts = %d, want 1", got)
	}
	// The request-result block still ran after the degraded entry decided.
	if got := log.all(); len(got) != 1 || got[0] != "notified" {
		t.Errorf("request-result activations = %v, want [notified]", got)
	}
}

func TestSupervisedRequestCancellation(t *testing.T) {
	a := New(WithEvaluatorTimeout(time.Minute))
	registerFaulty(a)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_hangs local
`))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	ans, err := a.CheckAuthorization(ctx, p, simpleRequest())
	if err != nil {
		t.Fatalf("CheckAuthorization: %v", err)
	}
	if ans.Decision != Maybe {
		t.Fatalf("decision = %v, want maybe on cancellation", ans.Decision)
	}
	if len(ans.Faults) != 1 || ans.Faults[0].Kind != FaultTimeout {
		t.Fatalf("faults = %+v, want one timeout fault", ans.Faults)
	}
	if !strings.Contains(ans.Faults[0].Reason, "cancel") {
		t.Errorf("reason = %q, want a cancellation reason", ans.Faults[0].Reason)
	}
}

func TestSupervisedErrorWithoutNoDegrades(t *testing.T) {
	a, _ := newTestAPI(t)
	registerFaulty(a)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_errs local
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Fatalf("decision = %v, want maybe (error cannot assert YES)", ans.Decision)
	}
	if len(ans.Faults) != 1 || ans.Faults[0].Kind != FaultError {
		t.Fatalf("faults = %+v, want one error fault", ans.Faults)
	}
	if got := a.SupervisionStats().Errors; got != 1 {
		t.Errorf("Errors = %d, want 1", got)
	}
}

func TestSupervisedErrorWithNoIsPreserved(t *testing.T) {
	a, _ := newTestAPI(t)
	a.RegisterFunc("deny_err", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return Outcome{Result: No, Class: ClassRequirement, Err: errors.New("explicit deny"), Detail: "denied"}
	})
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_deny_err local
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != No {
		t.Fatalf("decision = %v, want no (an erroring NO still denies)", ans.Decision)
	}
	if len(ans.Faults) != 0 {
		t.Errorf("faults = %+v, want none for a deliberate NO", ans.Faults)
	}
}

func TestSupervisedInvalidDecisionNormalized(t *testing.T) {
	a, _ := newTestAPI(t)
	registerFaulty(a)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_invalid local
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Fatalf("decision = %v, want maybe", ans.Decision)
	}
	if len(ans.Faults) != 1 || ans.Faults[0].Kind != FaultInvalid {
		t.Fatalf("faults = %+v, want one invalid-decision fault", ans.Faults)
	}
	if got := a.SupervisionStats().Invalid; got != 1 {
		t.Errorf("Invalid = %d, want 1", got)
	}
}

// TestFaultTracedWithTracingOff pins the observability contract: even
// with tracing disabled, a degraded evaluation leaves a TraceEvent so
// the audit trail can tell a policy MAYBE from a degraded-mode MAYBE.
func TestFaultTracedWithTracingOff(t *testing.T) {
	a := New() // no Request.Trace
	registerFaulty(a)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_panics local
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if len(ans.Trace) != 1 {
		t.Fatalf("trace = %+v, want the forced fault event", ans.Trace)
	}
	ev := ans.Trace[0]
	if ev.Outcome.Fault != FaultPanic || ev.Outcome.faultReason() == "" {
		t.Errorf("trace outcome = %+v, want panic fault with reason", ev.Outcome)
	}
}

// TestMidPhasePanicContained: a panicking mid-condition evaluator must
// not escape ExecutionControl; the phase answers MAYBE and traces the
// fault.
func TestMidPhasePanicContained(t *testing.T) {
	a, _ := newTestAPI(t)
	registerFaulty(a)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
mid_cond_panics local
`))
	req := simpleRequest()
	ans := checkAuth(t, a, p, req)
	if ans.Decision != Yes {
		t.Fatalf("decision = %v, want yes (mid block does not gate phase 1)", ans.Decision)
	}
	dec, trace := a.ExecutionControl(context.Background(), ans, req)
	if dec != Maybe {
		t.Errorf("ExecutionControl = %v, want maybe", dec)
	}
	if len(trace) == 0 || trace[len(trace)-1].Outcome.Fault != FaultPanic {
		t.Errorf("trace = %+v, want a recorded panic fault", trace)
	}
}

// TestPostPhasePanicContained is the phase-3 twin.
func TestPostPhasePanicContained(t *testing.T) {
	a, _ := newTestAPI(t)
	registerFaulty(a)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
post_cond_panics local
`))
	req := simpleRequest()
	ans := checkAuth(t, a, p, req)
	dec, trace := a.PostExecutionActions(context.Background(), ans, req, Yes)
	if dec != Maybe {
		t.Errorf("PostExecutionActions = %v, want maybe", dec)
	}
	if len(trace) == 0 || trace[len(trace)-1].Outcome.Fault != FaultPanic {
		t.Errorf("trace = %+v, want a recorded panic fault", trace)
	}
}

// TestTimeoutZeroKeepsSynchronousPath: without WithEvaluatorTimeout the
// supervisor must not spawn goroutines — a hang propagates (cut here
// via the request context) but panics are still recovered.
func TestTimeoutZeroKeepsSynchronousPath(t *testing.T) {
	a := New()
	registerFaulty(a)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_panics local
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe || len(ans.Faults) != 1 || ans.Faults[0].Kind != FaultPanic {
		t.Fatalf("answer = %+v, want recovered panic without a deadline configured", ans)
	}
}

// TestFaultsSurviveComposition: faults from both policy levels merge
// into the answer regardless of which level decides.
func TestFaultsSurviveComposition(t *testing.T) {
	a, _ := newTestAPI(t)
	registerFaulty(a)
	sys := mustEACL(t, `
eacl_mode narrow
pos_access_right apache *
pre_cond_panics local
`)
	loc := mustEACL(t, `
pos_access_right apache *
pre_cond_errs local
`)
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Fatalf("decision = %v, want maybe", ans.Decision)
	}
	kinds := map[FaultKind]int{}
	for _, f := range ans.Faults {
		kinds[f.Kind]++
	}
	if kinds[FaultPanic] != 1 || kinds[FaultError] != 1 {
		t.Errorf("faults = %+v, want one panic and one error across levels", ans.Faults)
	}
}

func TestFaultKindString(t *testing.T) {
	for k, want := range map[FaultKind]string{
		FaultNone: "none", FaultPanic: "panic", FaultTimeout: "timeout",
		FaultError: "error", FaultInvalid: "invalid", FaultKind(42): "FaultKind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
