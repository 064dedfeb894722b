package gaa

import (
	"context"
	"reflect"
	"testing"

	"gaaapi/internal/eacl"
)

// TestNegEntryMaybeIsUncertain pins the documented choice: a negative
// entry whose conditions are uncertain yields MAYBE (the server's
// native access control decides), never a silent skip of a possible
// threat nor a spurious deny.
func TestNegEntryMaybeIsUncertain(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
neg_access_right apache *
pre_cond_maybe local
pos_access_right apache *
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Errorf("decision = %v, want maybe", ans.Decision)
	}
	if len(ans.Unevaluated) != 1 {
		t.Errorf("unevaluated = %v", ans.Unevaluated)
	}
}

// TestRequestResultFiresAtBothLevels: under narrow composition with
// both levels deciding, the request-result conditions of BOTH deciding
// entries run, and they see the FINAL composed decision.
func TestRequestResultFiresAtBothLevels(t *testing.T) {
	a, log := newTestAPI(t)
	sys := mustEACL(t, `
eacl_mode narrow
pos_access_right apache *
rr_cond_record local on:any/sys
`)
	loc := mustEACL(t, `
neg_access_right apache *
rr_cond_record local on:any/loc
`)
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != No {
		t.Fatalf("decision = %v, want no (narrow)", ans.Decision)
	}
	// Both entries fired their rr blocks; the recorded decision is the
	// composed one (no), even for the system entry that granted.
	got := log.all()
	want := []string{"on:any/sys:no", "on:any/loc:no"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rr activations = %v, want %v", got, want)
	}
}

// TestMidBlocksMergeAcrossLevels: the mid-conditions of every deciding
// entry accumulate in the answer (system quota AND local quota both
// enforced during execution).
func TestMidBlocksMergeAcrossLevels(t *testing.T) {
	a, _ := newTestAPI(t)
	sys := mustEACL(t, `
eacl_mode narrow
pos_access_right apache *
mid_cond_quota local cpu_ms<=100
`)
	loc := mustEACL(t, `
pos_access_right apache *
mid_cond_quota local output_bytes<=4096
`)
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Yes {
		t.Fatalf("decision = %v", ans.Decision)
	}
	if len(ans.Mid) != 2 {
		t.Errorf("mid conditions = %v, want both levels' quotas", ans.Mid)
	}
}

// TestExecutionControlUnregisteredQuotaIsMaybe: an unevaluable
// mid-condition yields MAYBE from the execution-control phase — the
// caller decides whether to run open or fail closed — and the
// specification traces it.
func TestExecutionControlUnregisteredQuotaIsMaybe(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
mid_cond_never_registered local x<=1
`))
	req := simpleRequest()
	req.Trace = true
	ans := checkAuth(t, a, p, req)
	if dec, _ := a.ExecutionControl(context.Background(), ans, req); dec != Maybe {
		t.Errorf("ExecutionControl = %v, want maybe", dec)
	}
	dec, trace := a.ReferenceExecutionControl(context.Background(), ans, req)
	if dec != Maybe {
		t.Errorf("specification's ExecutionControl = %v, want maybe", dec)
	}
	if len(trace) != 1 {
		t.Errorf("trace = %v", trace)
	}
}

// TestChallengePreservedThroughNarrowGrantingSystem: a curable local
// deny keeps its challenge when the system level grants.
func TestChallengePreservedThroughNarrowGrantingSystem(t *testing.T) {
	a, _ := newTestAPI(t)
	sys := mustEACL(t, "eacl_mode narrow\npos_access_right apache *")
	loc := mustEACL(t, `
pos_access_right apache *
pre_cond_req_no local
`)
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != No || ans.Challenge == "" {
		t.Errorf("decision = %v challenge = %q, want curable deny", ans.Decision, ans.Challenge)
	}
}

// TestFirstMatchingRightDecidesNotFirstEntry: entries whose rights do
// not match are skipped entirely — including their conditions.
func TestFirstMatchingRightDecidesNotFirstEntry(t *testing.T) {
	a, log := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
neg_access_right sshd *
rr_cond_record local on:any/wrong-app
pos_access_right apache *
rr_cond_record local on:any/right-app
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Yes {
		t.Fatalf("decision = %v", ans.Decision)
	}
	// The test evaluator strips only on:success/on:failure prefixes, so
	// the on:any tag records verbatim.
	if got := log.all(); len(got) != 1 || got[0] != "on:any/right-app:yes" {
		t.Errorf("rr activations = %v", got)
	}
}

// TestPostBlocksNotInheritedFromInapplicableEntries: only deciding
// entries contribute post-conditions.
func TestPostBlocksNotInheritedFromInapplicableEntries(t *testing.T) {
	a, _ := newTestAPI(t)
	p := localPolicy(mustEACL(t, `
pos_access_right apache *
pre_cond_sel_no local
post_cond_record local on:any/skipped-entry
pos_access_right apache *
post_cond_record local on:any/fired-entry
`))
	ans := checkAuth(t, a, p, simpleRequest())
	if len(ans.Post) != 1 || ans.Post[0].Value != "on:any/fired-entry" {
		t.Errorf("post conditions = %v", ans.Post)
	}
}
