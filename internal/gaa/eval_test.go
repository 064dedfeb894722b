package gaa

import (
	"context"
	"testing"

	"gaaapi/internal/eacl"
)

func localPolicy(e ...*eacl.EACL) *Policy {
	return NewPolicy("/index.html", nil, e)
}

func TestUnconditionalGrant(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, "pos_access_right apache *"))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Yes || !ans.Applicable {
		t.Errorf("decision = %v applicable=%v, want yes/true", ans.Decision, ans.Applicable)
	}
}

func TestUnconditionalDeny(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, "neg_access_right apache *"))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != No || !ans.Applicable {
		t.Errorf("decision = %v applicable=%v, want no/true", ans.Decision, ans.Applicable)
	}
}

func TestNoApplicableEntryIsUncertain(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, "pos_access_right sshd login"))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe || ans.Applicable {
		t.Errorf("decision = %v applicable=%v, want maybe/false (uncertain)", ans.Decision, ans.Applicable)
	}
}

func TestEmptyPolicyIsUncertain(t *testing.T) {
	a, _ := newTestAPI(t)
	ans := checkAuth(t, a, localPolicy(), simpleRequest())
	if ans.Decision != Maybe || ans.Applicable {
		t.Errorf("decision = %v applicable=%v, want maybe/false", ans.Decision, ans.Applicable)
	}
}

// Paper section 7.2: a failing selector on a neg entry makes the scan
// proceed to the next entry that grants the request.
func TestSelectorFallThrough(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
neg_access_right apache *
pre_cond_sel_no local
pos_access_right apache *
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Yes {
		t.Errorf("decision = %v, want yes (fall through past inapplicable deny)", ans.Decision)
	}
}

func TestSelectorMatchDenies(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
neg_access_right apache *
pre_cond_sel_yes local
pos_access_right apache *
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != No {
		t.Errorf("decision = %v, want no (neg entry fired)", ans.Decision)
	}
}

// Paper section 7.1: a failed identity requirement on a pos entry is a
// final deny carrying an authentication challenge, not a fall-through.
func TestRequirementFailureDeniesWithChallenge(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_sel_yes local
pre_cond_req_no local
pos_access_right apache *
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != No {
		t.Fatalf("decision = %v, want no", ans.Decision)
	}
	if ans.Challenge == "" {
		t.Error("want authentication challenge on requirement failure")
	}
}

func TestPosSelectorFailureFallsThrough(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_sel_no local
pre_cond_req_no local
neg_access_right apache *
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != No {
		t.Fatalf("decision = %v, want no (second entry)", ans.Decision)
	}
	// The failing selector must short-circuit the entry: the req_no
	// requirement after it must not have produced a challenge.
	if ans.Challenge != "" {
		t.Errorf("challenge = %q, want none (requirement after failed selector must not run)", ans.Challenge)
	}
}

func TestMaybeCarriesUnevaluatedConditions(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_sel_yes local
pre_cond_maybe local deferred-value
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe || !ans.Applicable {
		t.Fatalf("decision = %v applicable=%v, want maybe/true", ans.Decision, ans.Applicable)
	}
	if len(ans.Unevaluated) != 1 || ans.Unevaluated[0].Type != "maybe" {
		t.Fatalf("unevaluated = %v, want the maybe condition", ans.Unevaluated)
	}
	if ans.Unevaluated[0].Value != "deferred-value" {
		t.Errorf("unevaluated value = %q", ans.Unevaluated[0].Value)
	}
}

// Paper section 6: unregistered condition evaluators yield MAYBE.
func TestUnregisteredConditionIsMaybe(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_never_registered local x
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Errorf("decision = %v, want maybe", ans.Decision)
	}
	if _, ok := ans.UnevaluatedOnly("never_registered"); !ok {
		t.Errorf("UnevaluatedOnly: %v", ans.Unevaluated)
	}
}

func TestEvaluatorErrorDegradesToMaybe(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_erroring local
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Errorf("decision = %v, want maybe (erroring evaluator cannot assert yes)", ans.Decision)
	}
}

func TestEntryOrderingFirstDecides(t *testing.T) {
	a, _ := newTestAPI(t)
	// "The entries which already have been examined take precedence
	// over new entries" (paper section 2).
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
neg_access_right apache *
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Yes {
		t.Errorf("decision = %v, want yes (first entry wins)", ans.Decision)
	}
}

func TestRightMatchingSelectsEntries(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
neg_access_right apache GET /secret/*
pos_access_right apache GET /*
`))
	secret := NewRequest("apache", "GET /secret/plans.html")
	if ans := checkAuth(t, a, p, secret); ans.Decision != No {
		t.Errorf("secret: decision = %v, want no", ans.Decision)
	}
	public := NewRequest("apache", "GET /public/index.html")
	if ans := checkAuth(t, a, p, public); ans.Decision != Yes {
		t.Errorf("public: decision = %v, want yes", ans.Decision)
	}
}

func TestMultipleRequestedRights(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, "neg_access_right apache POST *"))
	req := &Request{Rights: []eacl.Right{
		{Sign: eacl.Pos, DefAuth: "apache", Value: "GET /x"},
		{Sign: eacl.Pos, DefAuth: "apache", Value: "POST /x"},
	}}
	if ans := checkAuth(t, a, p, req); ans.Decision != No {
		t.Errorf("decision = %v, want no (any requested right can match)", ans.Decision)
	}
}

func TestParamSelector(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
neg_access_right apache *
pre_cond_param_is local client_ip=10.0.0.66
pos_access_right apache *
`))
	bad := simpleRequest(Param{Type: ParamClientIP, Authority: "local", Value: "10.0.0.66"})
	if ans := checkAuth(t, a, p, bad); ans.Decision != No {
		t.Errorf("blacklisted client: decision = %v, want no", ans.Decision)
	}
	good := simpleRequest(Param{Type: ParamClientIP, Authority: "local", Value: "10.0.0.1"})
	if ans := checkAuth(t, a, p, good); ans.Decision != Yes {
		t.Errorf("clean client: decision = %v, want yes", ans.Decision)
	}
}

func TestTraceRecordsEvaluation(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
neg_access_right apache *
pre_cond_sel_no local
pos_access_right apache *
pre_cond_sel_yes local
`))
	req := simpleRequest()
	req.Trace = true
	ans := a.ReferenceCheck(context.Background(), p, req)
	if len(ans.Trace) == 0 {
		t.Fatal("empty trace")
	}
	var sawInapplicable, sawGrant bool
	for _, ev := range ans.Trace {
		if ev.Note == "entry inapplicable" {
			sawInapplicable = true
		}
		if ev.Note == "entry fired: grant" {
			sawGrant = true
		}
	}
	if !sawInapplicable || !sawGrant {
		t.Errorf("trace missing events: %v", ans.Trace)
	}
	// TraceEvent.String smoke test.
	if s := ans.Trace[0].String(); s == "" {
		t.Error("TraceEvent.String returned empty")
	}
}
