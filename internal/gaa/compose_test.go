package gaa

import (
	"testing"

	"gaaapi/internal/eacl"
)

func TestNewPolicyDerivesMode(t *testing.T) {
	sys := mustEACL(t, "eacl_mode stop\nneg_access_right * *")
	p := NewPolicy("/x", []*eacl.EACL{sys}, nil)
	if p.Mode != eacl.ModeStop {
		t.Errorf("mode = %v, want stop", p.Mode)
	}
	p2 := NewPolicy("/x", nil, nil)
	if p2.Mode != DefaultCompositionMode {
		t.Errorf("default mode = %v, want %v", p2.Mode, DefaultCompositionMode)
	}
}

func TestPolicyEACLsOrderAndStop(t *testing.T) {
	sys := mustEACL(t, "eacl_mode narrow\nneg_access_right * *")
	loc := mustEACL(t, "pos_access_right apache *")
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	if got := p.EACLs(); len(got) != 2 || got[0] != sys || got[1] != loc {
		t.Errorf("EACLs() = %v, want [sys, loc]", got)
	}
	stop := mustEACL(t, "eacl_mode stop\nneg_access_right * *")
	ps := NewPolicy("/x", []*eacl.EACL{stop}, []*eacl.EACL{loc})
	if got := ps.EACLs(); len(got) != 1 || got[0] != stop {
		t.Errorf("stop EACLs() = %v, want [sys]", got)
	}
}

// Narrow: the system-wide policy is mandatory — its deny cannot be
// bypassed by a local grant (paper section 2.1).
func TestComposeNarrowSystemDenyWins(t *testing.T) {
	a, _ := newTestAPI(t)
	sys := mustEACL(t, `
eacl_mode narrow
neg_access_right * *
pre_cond_sel_yes local
`)
	loc := mustEACL(t, "pos_access_right apache *")
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != No {
		t.Errorf("decision = %v, want no", ans.Decision)
	}
}

func TestComposeNarrowRequiresBoth(t *testing.T) {
	a, _ := newTestAPI(t)
	sys := mustEACL(t, "eacl_mode narrow\npos_access_right apache *")
	locDeny := mustEACL(t, "neg_access_right apache *")
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{locDeny})
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != No {
		t.Errorf("sys yes + local no: decision = %v, want no", ans.Decision)
	}
	locGrant := mustEACL(t, "pos_access_right apache *")
	p2 := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{locGrant})
	if ans := checkAuth(t, a, p2, simpleRequest()); ans.Decision != Yes {
		t.Errorf("sys yes + local yes: decision = %v, want yes", ans.Decision)
	}
}

// Narrow with an inapplicable system policy defers to the local result
// (paper section 7.1 at low threat: the lockdown entry does not apply).
func TestComposeNarrowInapplicableSystemDefers(t *testing.T) {
	a, _ := newTestAPI(t)
	sys := mustEACL(t, `
eacl_mode narrow
neg_access_right * *
pre_cond_sel_no local
`)
	loc := mustEACL(t, "pos_access_right apache *")
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != Yes {
		t.Errorf("decision = %v, want yes", ans.Decision)
	}
}

// Expand: access is allowed if either level allows it.
func TestComposeExpand(t *testing.T) {
	a, _ := newTestAPI(t)
	sysGrant := mustEACL(t, "eacl_mode expand\npos_access_right apache *")
	locDeny := mustEACL(t, "neg_access_right apache *")
	p := NewPolicy("/x", []*eacl.EACL{sysGrant}, []*eacl.EACL{locDeny})
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != Yes {
		t.Errorf("sys yes | local no: decision = %v, want yes (expand)", ans.Decision)
	}
	sysDeny := mustEACL(t, "eacl_mode expand\nneg_access_right apache *")
	locGrant := mustEACL(t, "pos_access_right apache *")
	p2 := NewPolicy("/x", []*eacl.EACL{sysDeny}, []*eacl.EACL{locGrant})
	if ans := checkAuth(t, a, p2, simpleRequest()); ans.Decision != Yes {
		t.Errorf("sys no | local yes: decision = %v, want yes (expand)", ans.Decision)
	}
	p3 := NewPolicy("/x", []*eacl.EACL{sysDeny}, []*eacl.EACL{locDeny})
	if ans := checkAuth(t, a, p3, simpleRequest()); ans.Decision != No {
		t.Errorf("sys no | local no: decision = %v, want no", ans.Decision)
	}
}

// Stop: the system-wide policy applies and local policies are ignored.
func TestComposeStop(t *testing.T) {
	a, log := newTestAPI(t)
	sys := mustEACL(t, "eacl_mode stop\nneg_access_right apache *")
	loc := mustEACL(t, `
pos_access_right apache *
rr_cond_record local local-fired
`)
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != No {
		t.Errorf("decision = %v, want no (stop)", ans.Decision)
	}
	if got := log.all(); len(got) != 0 {
		t.Errorf("local rr conditions fired under stop mode: %v", got)
	}
}

func TestComposeStopWithoutSystemFallsToLocal(t *testing.T) {
	a, _ := newTestAPI(t)
	loc := mustEACL(t, "pos_access_right apache *")
	p := NewPolicy("/x", nil, []*eacl.EACL{loc})
	p.Mode = eacl.ModeStop
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != Yes {
		t.Errorf("decision = %v, want yes", ans.Decision)
	}
}

// Multiple policies at the same level are conjoined (paper section 2.1).
func TestSameLevelConjunction(t *testing.T) {
	a, _ := newTestAPI(t)
	l1 := mustEACL(t, "pos_access_right apache *")
	l2 := mustEACL(t, "neg_access_right apache *")
	p := NewPolicy("/x", nil, []*eacl.EACL{l1, l2})
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != No {
		t.Errorf("decision = %v, want no (conjunction of local policies)", ans.Decision)
	}
}

func TestBothLevelsInapplicableIsUncertain(t *testing.T) {
	a, _ := newTestAPI(t)
	sys := mustEACL(t, "eacl_mode narrow\npos_access_right sshd *")
	loc := mustEACL(t, "neg_access_right ftp *")
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe || ans.Applicable {
		t.Errorf("decision = %v applicable=%v, want maybe/false", ans.Decision, ans.Applicable)
	}
}

func TestChallengeSuppressedByUncurableDeny(t *testing.T) {
	a, _ := newTestAPI(t)
	// System denies outright; local denies for lack of authentication.
	// Authenticating cannot cure the system deny, so no challenge.
	sys := mustEACL(t, `
eacl_mode narrow
neg_access_right * *
pre_cond_sel_yes local
`)
	loc := mustEACL(t, `
pos_access_right apache *
pre_cond_req_no local
`)
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != No {
		t.Fatalf("decision = %v, want no", ans.Decision)
	}
	if ans.Challenge != "" {
		t.Errorf("challenge = %q, want suppressed", ans.Challenge)
	}
}

func TestChallengeSurvivesWhenCurable(t *testing.T) {
	a, _ := newTestAPI(t)
	loc := mustEACL(t, `
pos_access_right apache *
pre_cond_req_no local
`)
	p := NewPolicy("/x", nil, []*eacl.EACL{loc})
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != No || ans.Challenge == "" {
		t.Errorf("decision = %v challenge = %q, want no with challenge", ans.Decision, ans.Challenge)
	}
}

func TestExpandMaybePropagates(t *testing.T) {
	a, _ := newTestAPI(t)
	sys := mustEACL(t, `
eacl_mode expand
pos_access_right apache *
pre_cond_maybe local
`)
	loc := mustEACL(t, "neg_access_right apache *")
	p := NewPolicy("/x", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Errorf("decision = %v, want maybe (yes-side uncertain beats deny under expand)", ans.Decision)
	}
	if len(ans.Unevaluated) == 0 {
		t.Error("unevaluated conditions lost in composition")
	}
}

// EACLs returns the composed ordered list, system-wide first, honoring
// ModeStop (local policies ignored when a system policy exists).
func (p *Policy) EACLs() []*eacl.EACL {
	if p.Mode == eacl.ModeStop && len(p.System) > 0 {
		return p.System
	}
	out := make([]*eacl.EACL, 0, len(p.System)+len(p.Local))
	out = append(out, p.System...)
	out = append(out, p.Local...)
	return out
}
