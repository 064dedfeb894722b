package gaa

import (
	"context"
	"strconv"
	"testing"

	"gaaapi/internal/eacl"
)

func TestResolveValue(t *testing.T) {
	v := NewValues()
	v.Set("max_input", "1000")
	v.Set("window", "09:00-17:00")
	tests := []struct {
		in     string
		want   string
		wantOK bool
	}{
		{"plain value", "plain value", true},
		{"@window", "09:00-17:00", true},
		{"input_length>@max_input", "input_length>1000", true},
		{"@window Mon-Fri", "09:00-17:00 Mon-Fri", true},
		{"input_length<=@max_input extra", "input_length<=1000 extra", true},
		{"@missing", "", false},
		{"x>@missing", "", false},
		{"user@host", "user@host", true}, // embedded '@' untouched
	}
	for _, tt := range tests {
		got, ok := ResolveValue(tt.in, v)
		if ok != tt.wantOK || got != tt.want {
			t.Errorf("ResolveValue(%q) = %q, %v; want %q, %v", tt.in, got, ok, tt.want, tt.wantOK)
		}
	}
	// No provider: references fail, plain values pass.
	if _, ok := ResolveValue("@x", nil); ok {
		t.Error("nil provider resolved a reference")
	}
	if got, ok := ResolveValue("no refs", nil); !ok || got != "no refs" {
		t.Error("nil provider broke plain values")
	}
	if _, ok := ResolveValue("x>@y", nil); ok {
		t.Error("nil provider resolved a comparator reference")
	}
}

func TestValuesStore(t *testing.T) {
	v := NewValues()
	if _, ok := v.LookupValue("a"); ok {
		t.Error("empty store resolved a name")
	}
	v.Set("a", "1")
	if got, ok := v.LookupValue("a"); !ok || got != "1" {
		t.Errorf("LookupValue = %q, %v", got, ok)
	}
	v.Set("a", "2")
	if got, _ := v.LookupValue("a"); got != "2" {
		t.Errorf("updated value = %q", got)
	}
	v.Delete("a")
	if _, ok := v.LookupValue("a"); ok {
		t.Error("Delete had no effect")
	}
}

// TestAdaptiveThresholdThroughPolicy is the paper's worked mechanism:
// the overflow bound lives in the runtime value store; tightening it
// (as an IDS would when the threat rises) changes which requests the
// same policy denies — no policy edit, no re-parse.
func TestAdaptiveThresholdThroughPolicy(t *testing.T) {
	values := NewValues()
	values.Set("max_input", "1000")

	a := New(WithValues(values))
	a.RegisterFunc("expr", AuthorityAny, func(_ context.Context, c eacl.Condition, r *Request) Outcome {
		// Minimal expr evaluator: "<param>><number>".
		for i := 0; i < len(c.Value); i++ {
			if c.Value[i] == '>' {
				limit, err := strconv.ParseInt(c.Value[i+1:], 10, 64)
				if err != nil {
					return Outcome{Result: Maybe, Unevaluated: true, Err: err}
				}
				got, ok := r.Params.GetInt(c.Value[:i], c.DefAuth)
				if !ok {
					return UnevaluatedOutcome("missing param")
				}
				if got > limit {
					return MetOutcome(ClassSelector, "over limit")
				}
				return FailedOutcome(ClassSelector, "within limit")
			}
		}
		return UnevaluatedOutcome("no comparator")
	})

	e := mustEACL(t, `
neg_access_right apache *
pre_cond_expr local input_length>@max_input
pos_access_right apache *
`)
	p := NewPolicy("/x", nil, []*eacl.EACL{e})
	req := func(n string) *Request {
		return NewRequest("apache", "GET /x",
			Param{Type: ParamInputLength, Authority: AuthorityAny, Value: n})
	}

	// 800 bytes is fine under the peacetime bound.
	if ans := checkAuth(t, a, p, req("800")); ans.Decision != Yes {
		t.Errorf("800 bytes @1000: %v, want yes", ans.Decision)
	}
	// The IDS tightens the bound to 500: the same request is denied.
	values.Set("max_input", "500")
	if ans := checkAuth(t, a, p, req("800")); ans.Decision != No {
		t.Errorf("800 bytes @500: %v, want no", ans.Decision)
	}
	// Deleting the value leaves the condition unevaluated: the deny
	// entry cannot assert, so evaluation is uncertain — never a silent
	// grant of the attack path nor a spurious deny.
	values.Delete("max_input")
	if ans := checkAuth(t, a, p, req("800")); ans.Decision != Maybe {
		t.Errorf("800 bytes with missing value: %v, want maybe", ans.Decision)
	}
}

// TestAPIWithoutValuesLeavesReferencesUnevaluated: policies written
// against a value store fail safe on an API without one.
func TestAPIWithoutValuesLeavesReferencesUnevaluated(t *testing.T) {
	a, _ := newTestAPI(t)
	e := mustEACL(t, `
pos_access_right apache *
pre_cond_sel_yes local @tunable
`)
	p := NewPolicy("/x", nil, []*eacl.EACL{e})
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != Maybe {
		t.Errorf("decision = %v, want maybe", ans.Decision)
	}
}

// TestHasValueRef: the predicate and the expander are one definition of
// the reference syntax — a value has a reference exactly when resolving
// it against a provider that knows nothing fails.
func TestHasValueRef(t *testing.T) {
	tests := []struct {
		value string
		want  bool
	}{
		{"@business_hours", true},
		{"input_length>@max_input", true},
		{"09:00-17:00 Mon-Fri", false},
		{"user@example.org", false}, // '@' not in reference position
		{"counter=failed key=ip max=5 window=60s", false},
		{"", false},
		{"alice@example.org bob", false},
		{"*@corp", false},
		{"*user@host*", false},
		{"@", true}, // a reference to the empty name
		{"x=@", true},
		{"a@b=@c", false}, // only the first '@' of a token is read
		{"level<=@max", true},
		{"retries!=@n", true},
		{"10.0.0.0/8 @nets", true},
		{"plain @", true},
		{"mail:@x", false},
	}
	for _, tt := range tests {
		if got := HasValueRef(tt.value); got != tt.want {
			t.Errorf("HasValueRef(%q) = %v, want %v", tt.value, got, tt.want)
		}
		for _, provider := range []ValueProvider{nil, NewValues()} {
			if _, ok := ResolveValue(tt.value, provider); ok == tt.want {
				t.Errorf("ResolveValue(%q, empty) ok = %v with HasValueRef = %v", tt.value, ok, tt.want)
			}
		}
	}
}
