package conditions

import (
	"context"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
)

// TestCompiledCondParity compiles every compilable builtin condition
// and requires EvalCompiled's verdict word to carry what the scan reads
// of the interpreter's Outcome — result, class, unevaluated-ness and
// challenge — across a request matrix. This is the per-evaluator
// complement of package gaa's differential fuzz: it pins each compiler
// in isolation.
func TestCompiledCondParity(t *testing.T) {
	grp := groups.NewStore()
	grp.Add("BadGuys", "10.9.9.9")
	grp.Add("staff", "alice")
	deps := Deps{Threat: ids.NewManager(ids.Medium), Groups: grp}

	reqs := []*gaa.Request{
		gaa.NewRequest("apache", "GET /index.html",
			gaa.Param{Type: gaa.ParamClientIP, Authority: "*", Value: "10.9.9.9"},
			gaa.Param{Type: gaa.ParamInputLength, Authority: "*", Value: "14"},
		),
		gaa.NewRequest("apache", "GET /cgi-bin/phf?q=x",
			gaa.Param{Type: gaa.ParamClientIP, Authority: "*", Value: "192.168.1.5"},
			gaa.Param{Type: gaa.ParamUser, Authority: "*", Value: "alice"},
			gaa.Param{Type: gaa.ParamClientHost, Authority: "*", Value: "ws.example.org"},
			gaa.Param{Type: gaa.ParamInputLength, Authority: "*", Value: "2000"},
		),
		gaa.NewRequest("apache", "GET /x"), // no params at all
	}
	times := []time.Time{
		time.Date(2026, time.March, 4, 15, 30, 0, 0, time.UTC), // Wed afternoon
		time.Date(2026, time.March, 8, 2, 0, 0, 0, time.UTC),   // Sun night
	}

	cases := []struct {
		typ, value string
		compiles   bool
	}{
		{"system_threat_level", "=high", true},
		{"system_threat_level", ">low", true},
		{"system_threat_level", ">=medium", true},
		{"system_threat_level", "<high", true},
		{"system_threat_level", "~bogus", false},
		{"time_window", "09:00-17:00", true},
		{"time_window", "18:00-08:00", true},
		{"time_window", "09:00-17:00 Mon-Fri", true},
		{"time_window", "garbage", false},
		{"location", "10.0.0.0/8", true},
		{"location", "10.0.0.0/8 192.168.1.5", true},
		{"location", "10.0.0.0/8 192.168.*", true},
		{"location", "10.0.0.0/8 999.0.0.0/8", false},
		{"regex", "*phf* *cmd.exe*", true},
		{"regex", "GET /index.html *.html GET /cgi-bin/* **phf** GET*x", true}, // every glob shape
		{"regex", "re:^GET /cgi-bin/.*$", true},
		{"regex", "re:(", false},
		{"expr", "input_length>1000", true},
		{"expr", "missing_param<5", true},
		{"expr", "nonsense", false},
		{"accessid_USER", "alice bob", true},
		{"accessid_USER", "*", true},
		{"accessid_GROUP", "BadGuys", true},
		{"accessid_GROUP", "staff", true},
		{"accessid_HOST", "*.example.org", true},
		{"redirect", "http://mirror.example/", true},
	}
	for _, tc := range cases {
		ev, ok := Builtin(tc.typ, deps)
		if !ok {
			t.Fatalf("no builtin %q", tc.typ)
		}
		comp, ok := ev.(gaa.CondCompiler)
		if !ok {
			t.Fatalf("builtin %q does not implement CondCompiler", tc.typ)
		}
		cond := eacl.Condition{Block: eacl.BlockPre, Type: tc.typ, DefAuth: "local", Value: tc.value}
		cc, ok := comp.CompileCond(cond)
		if ok != tc.compiles {
			t.Errorf("%s %q: CompileCond ok = %v, want %v", tc.typ, tc.value, ok, tc.compiles)
			continue
		}
		if !ok {
			continue
		}
		for ri, base := range reqs {
			for ti, at := range times {
				req := *base
				req.Time = at
				got := cc.EvalCompiled(&req)
				want := ev.Evaluate(context.Background(), cond, &req)
				if !verdictCarries(got, cc.Challenge(), want) {
					t.Errorf("%s %q req %d time %d:\n  compiled    %04b challenge %q\n  interpreted %+v",
						tc.typ, tc.value, ri, ti, got, cc.Challenge(), want)
				}
			}
		}
	}
}

// TestCompileCondRefusals pins the compile-time refusals that depend
// on wiring rather than the condition value.
func TestCompileCondRefusals(t *testing.T) {
	cond := func(typ, value string) eacl.Condition {
		return eacl.Condition{Block: eacl.BlockPre, Type: typ, DefAuth: "local", Value: value}
	}
	// No threat provider: the evaluator answers MAYBE dynamically, so
	// there is nothing worth baking in.
	ev, _ := Builtin("system_threat_level", Deps{})
	if _, ok := ev.(gaa.CondCompiler).CompileCond(cond("system_threat_level", "=high")); ok {
		t.Error("threat condition compiled without a provider")
	}
	// No group store.
	ev, _ = Builtin("accessid_GROUP", Deps{})
	if _, ok := ev.(gaa.CondCompiler).CompileCond(cond("accessid_GROUP", "BadGuys")); ok {
		t.Error("group condition compiled without a store")
	}
	// Empty group name.
	ev, _ = Builtin("accessid_GROUP", Deps{Groups: groups.NewStore()})
	if _, ok := ev.(gaa.CondCompiler).CompileCond(cond("accessid_GROUP", "  ")); ok {
		t.Error("group condition compiled with an empty group")
	}
}

// verdictCarries reports whether verdict word v (of a condition whose
// compile-time challenge is challenge) says what Outcome o says.
func verdictCarries(v gaa.CondVerdict, challenge string, o gaa.Outcome) bool {
	if o.Fault != gaa.FaultNone || o.Err != nil {
		return false // a compilable value never degrades
	}
	if o.Class == 0 {
		o.Class = gaa.ClassSelector // the zero class reads as selector
	}
	if (v&gaa.CondRequirement != 0) != (o.Class == gaa.ClassRequirement) {
		return false
	}
	if v&gaa.CondChallenge == 0 {
		challenge = ""
	}
	return v.Result() == o.Result && o.Unevaluated == (v.Result() == gaa.Maybe) && challenge == o.Challenge
}

// TestLiteralAtSignHoists: whether a value is dynamic is decided by
// gaa.HasValueRef — the reference syntax — not by the presence of an
// '@'. A mail-style user, a host glob and a signature containing '@'
// are literal text and hoist (no goroutine and timer per request under
// WithEvaluatorTimeout); real references stay dynamic.
func TestLiteralAtSignHoists(t *testing.T) {
	cases := []struct {
		condLine string
		dynamic  uint64
	}{
		{"pre_cond_accessid_USER local alice@example.org", 0},
		{"pre_cond_accessid_HOST local *@corp", 0},
		{"pre_cond_regex gnu *user@host*", 0},
		{"pre_cond_accessid_USER local alice", 0},
		{"pre_cond_expr local input_length>@max", 1},
		{"pre_cond_location local @nets", 1},
	}
	for _, tc := range cases {
		api := gaa.New()
		Register(api, Deps{})
		e, err := eacl.ParseString("pos_access_right apache *\n" + tc.condLine + "\n")
		if err != nil {
			t.Fatalf("%s: %v", tc.condLine, err)
		}
		p := gaa.NewPolicy("/x", nil, []*eacl.EACL{e})
		req := gaa.NewRequest("apache", "GET /x", userParam("alice@example.org"))
		ans, err := api.CheckAuthorization(context.Background(), p, req)
		if err != nil {
			t.Fatalf("%s: %v", tc.condLine, err)
		}
		st := api.CompileStats()
		if st.DynamicConds != tc.dynamic || st.FastConds != 1-tc.dynamic {
			t.Errorf("%s: FastConds %d / DynamicConds %d, want %d / %d",
				tc.condLine, st.FastConds, st.DynamicConds, 1-tc.dynamic, tc.dynamic)
		}
		if strings.Contains(tc.condLine, "alice@") && ans.Decision != gaa.Yes {
			t.Errorf("%s: decision %v for alice@example.org, want yes", tc.condLine, ans.Decision)
		}
	}
}
