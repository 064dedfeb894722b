package gaa

import (
	"context"
	"errors"
	"testing"

	"gaaapi/internal/eacl"
)

// failingSource errors on every operation, for error-path coverage.
type failingSource struct{ err error }

func (f failingSource) Policies(string) ([]*eacl.EACL, error) { return nil, f.err }
func (f failingSource) Revision(string) (string, error)       { return "", f.err }

func TestGetObjectPolicyInfoSourceErrors(t *testing.T) {
	boom := errors.New("boom")
	a := New()
	if _, err := a.GetObjectPolicyInfo("/x", []PolicySource{failingSource{boom}}, nil); !errors.Is(err, boom) {
		t.Errorf("system source error = %v, want boom", err)
	}
	if _, err := a.GetObjectPolicyInfo("/x", nil, []PolicySource{failingSource{boom}}); !errors.Is(err, boom) {
		t.Errorf("local source error = %v, want boom", err)
	}
	// With the cache enabled, a Revision error surfaces too.
	ac := New(WithPolicyCache(4))
	if _, err := ac.GetObjectPolicyInfo("/x", []PolicySource{failingSource{boom}}, nil); !errors.Is(err, boom) {
		t.Errorf("revision error = %v, want boom", err)
	}
}

// A cached entry must go stale when either source level changes — the
// per-source revision comparison covers local sources too.
func TestCacheRevalidatesBothLevels(t *testing.T) {
	m1, m2 := NewMemorySource(), NewMemorySource()
	if err := m1.AddPolicy("*", "pos_access_right a *"); err != nil {
		t.Fatal(err)
	}
	a := New(WithPolicyCache(4))
	sys, loc := []PolicySource{m1}, []PolicySource{m2}
	if _, err := a.GetObjectPolicyInfo("/x", sys, loc); err != nil {
		t.Fatal(err)
	}
	if err := m2.AddPolicy("*", "neg_access_right a *"); err != nil {
		t.Fatal(err)
	}
	p, err := a.GetObjectPolicyInfo("/x", sys, loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Local) != 1 {
		t.Error("local-source change did not invalidate the cached policy")
	}
	if st := a.CacheStats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (initial + local revision change)", st.Misses)
	}
	// A Revision error during hit validation surfaces to the caller.
	boom := errors.New("boom")
	if _, err := a.GetObjectPolicyInfo("/x", sys, []PolicySource{failingSource{boom}}); !errors.Is(err, boom) {
		t.Errorf("revision error = %v, want boom", err)
	}
}

func TestRegisterInterfaceForm(t *testing.T) {
	a := New()
	a.Register("custom", "auth", EvaluatorFunc(func(context.Context, eacl.Condition, *Request) Outcome {
		return MetOutcome(ClassSelector, "ok")
	}))
	if !a.Known("custom", "auth") {
		t.Error("Register(interface) did not install the evaluator")
	}
}

func TestOutcomeHelpers(t *testing.T) {
	if ClassSelector.String() != "selector" || ClassRequirement.String() != "requirement" || ClassAction.String() != "action" {
		t.Error("Class.String mismatch")
	}
	if Class(9).String() != "Class(9)" {
		t.Error("unknown Class.String mismatch")
	}
	if (Outcome{}).classOrDefault() != ClassSelector {
		t.Error("zero class should default to selector")
	}
	if (Outcome{Class: ClassAction}).classOrDefault() != ClassAction {
		t.Error("explicit class overridden")
	}
	u := UnevaluatedOutcome("x")
	if u.Result != Maybe || !u.Unevaluated {
		t.Errorf("UnevaluatedOutcome = %+v", u)
	}
}

func TestUnevaluatedOnlyVariants(t *testing.T) {
	redirect := eacl.Condition{Type: "redirect", Value: "http://x/"}
	other := eacl.Condition{Type: "maybe"}
	tests := []struct {
		name   string
		ans    Answer
		wantOK bool
	}{
		{"single redirect", Answer{Unevaluated: []eacl.Condition{redirect}}, true},
		{"wrong type", Answer{Unevaluated: []eacl.Condition{other}}, false},
		{"two conditions", Answer{Unevaluated: []eacl.Condition{redirect, other}}, false},
		{"none", Answer{}, false},
	}
	for _, tt := range tests {
		if _, ok := tt.ans.UnevaluatedOnly("redirect"); ok != tt.wantOK {
			t.Errorf("%s: UnevaluatedOnly = %v, want %v", tt.name, ok, tt.wantOK)
		}
	}
}
