package gaa

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gaaapi/internal/eacl"
)

// --- glob trie ---

func TestGlobTrieMatchesGlob(t *testing.T) {
	patterns := []string{
		"", "*", "**", "*a", "a*", "a**b", "abc", "a?c", "?", "GET /index.html",
		"GET /cgi-bin/*", "GET *", "*phf*", "10.0.*", "10.0.1.5", "apache",
		"loc*", "local", "*.html", "a*b*c", "***",
	}
	subjects := []string{
		"", "a", "abc", "aXc", "a?c", "?", "ab", "axbyc", "GET /index.html",
		"GET /cgi-bin/phf?x", "POST /x", "10.0.1.5", "10.1.2.3", "apache",
		"local", "loc", "index.html", "x.html", "GET ", "*",
	}
	var trie globTrie
	for i, p := range patterns {
		trie.insert(collapseStars(p), int32(i))
	}
	bits := make([]uint64, (len(patterns)+63)/64)
	for _, s := range subjects {
		clearBits(bits)
		trie.match(s, bits)
		for i, p := range patterns {
			want := eacl.Glob(p, s)
			if got := bitGet(bits, int32(i)); got != want {
				t.Errorf("trie match %q against pattern %q = %v, Glob = %v", s, p, got, want)
			}
		}
	}
}

// TestCollapseStarsEquivalence pins the canonicalization the trie
// relies on with the GlobCovers inclusion DP: the collapsed pattern
// accepts exactly the original's language.
func TestCollapseStarsEquivalence(t *testing.T) {
	for _, p := range []string{
		"", "*", "**", "***", "a**b", "**a**", "a*b**c***", "no-stars", "*?**",
	} {
		c := collapseStars(p)
		if !eacl.GlobCovers(c, p) || !eacl.GlobCovers(p, c) {
			t.Errorf("collapseStars(%q) = %q is not language-equivalent", p, c)
		}
	}
	if got := collapseStars("a**b***c"); got != "a*b*c" {
		t.Errorf("collapseStars = %q, want a*b*c", got)
	}
}

// --- compiled-engine fixtures ---

// fastEval is a CondCompiler test evaluator with per-path call
// counters.
type fastEval struct {
	out      Outcome
	compiled *atomic.Int64
	interp   *atomic.Int64
	panics   bool
}

func (f fastEval) Evaluate(context.Context, eacl.Condition, *Request) Outcome {
	f.interp.Add(1)
	return f.out
}

func (f fastEval) CompileCond(eacl.Condition) (CompiledCond, bool) {
	return fastCond{out: f.out, n: f.compiled, panics: f.panics}, true
}

type fastCond struct {
	out    Outcome
	n      *atomic.Int64
	panics bool
}

func (c fastCond) EvalCompiled(*Request) CondVerdict {
	c.n.Add(1)
	if c.panics {
		panic("compiled boom")
	}
	v := CondVerdict(c.out.Result)
	if c.out.Class == ClassRequirement {
		v |= CondRequirement
	}
	if c.out.Challenge != "" {
		v |= CondChallenge
	}
	return v
}

func (c fastCond) Challenge() string { return c.out.Challenge }

func memPolicy(t *testing.T, a *API, text string) *Policy {
	t.Helper()
	src := NewMemorySource()
	if err := src.AddPolicy("*", text); err != nil {
		t.Fatal(err)
	}
	p, err := a.GetObjectPolicyInfo("/index.html", nil, []PolicySource{src})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// --- engine behaviour ---

func TestCompiledMemoizesFastConds(t *testing.T) {
	var comp, interp atomic.Int64
	a := New()
	a.Register("fastno", AuthorityAny, fastEval{
		out: FailedOutcome(ClassSelector, "no"), compiled: &comp, interp: &interp,
	})
	p := memPolicy(t, a, `
neg_access_right apache *
pre_cond_fastno local same

pos_access_right apache *
pre_cond_fastno local same
`)
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe || ans.Applicable {
		t.Fatalf("decision = %v applicable=%v, want inapplicable maybe", ans.Decision, ans.Applicable)
	}
	if got := a.CompileStats().Runs; got != 1 {
		t.Fatalf("compiled runs = %d, want 1", got)
	}
	if comp.Load() != 1 {
		t.Errorf("compiled evaluations = %d, want 1 (memoized across both entries)", comp.Load())
	}
	if interp.Load() != 0 {
		t.Errorf("interpreted evaluations = %d, want 0", interp.Load())
	}
}

func TestCompiledProgramCachedAcrossRequests(t *testing.T) {
	a := New()
	p := memPolicy(t, a, "pos_access_right apache *")
	for i := 0; i < 5; i++ {
		if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != Yes {
			t.Fatalf("decision = %v, want yes", ans.Decision)
		}
	}
	st := a.CompileStats()
	if st.Programs != 1 {
		t.Errorf("programs = %d, want 1 (cached by EACL identity)", st.Programs)
	}
	if st.Runs != 5 {
		t.Errorf("runs = %d, want 5", st.Runs)
	}
}

func TestCompiledRecompilesOnNewRevision(t *testing.T) {
	a := New()
	src := NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	sources := []PolicySource{src}
	p, err := a.GetObjectPolicyInfo("/x", nil, sources)
	if err != nil {
		t.Fatal(err)
	}
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != Yes {
		t.Fatalf("decision = %v, want yes", ans.Decision)
	}
	// A hot reload replaces the source snapshot: newly parsed EACLs key
	// a fresh program.
	if err := src.AddPolicy("*", "neg_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	p2, err := a.GetObjectPolicyInfo("/x", nil, sources)
	if err != nil {
		t.Fatal(err)
	}
	if ans := checkAuth(t, a, p2, simpleRequest()); ans.Decision != No {
		t.Fatalf("post-reload decision = %v, want no", ans.Decision)
	}
	if st := a.CompileStats(); st.Programs != 2 {
		t.Errorf("programs = %d, want 2 (one per policy revision)", st.Programs)
	}
}

func TestCompiledRecompilesOnRegistration(t *testing.T) {
	a := New()
	p := memPolicy(t, a, `
pos_access_right apache *
pre_cond_later local
`)
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != Maybe {
		t.Fatalf("decision before registration = %v, want maybe", ans.Decision)
	}
	// Registration bumps the registry generation: the program that
	// baked in "no evaluator registered" must be rebuilt.
	a.RegisterFunc("later", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return MetOutcome(ClassSelector, "later")
	})
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != Yes {
		t.Fatalf("decision after registration = %v, want yes", ans.Decision)
	}
	if st := a.CompileStats(); st.Programs != 2 {
		t.Errorf("programs = %d, want 2 (recompiled at new generation)", st.Programs)
	}
}

func TestCompiledInvalidateCacheDropsPrograms(t *testing.T) {
	a := New()
	p := memPolicy(t, a, "pos_access_right apache *")
	checkAuth(t, a, p, simpleRequest())
	a.InvalidateCache()
	checkAuth(t, a, p, simpleRequest())
	if st := a.CompileStats(); st.Programs != 2 {
		t.Errorf("programs = %d, want 2 after InvalidateCache", st.Programs)
	}
}

// TestCompiledOneScanUnderEveryOption pins the absence of fallback
// gates: no option or request flag moves a check off the compiled walk,
// so Runs counts every check. What changes is which conditions run
// hoisted.
func TestCompiledOneScanUnderEveryOption(t *testing.T) {
	identity := WithEvaluatorWrapper(func(ev Evaluator) Evaluator { return ev })
	cases := []struct {
		name       string
		opts       []Option
		traceReq   bool
		wantHoists int64 // hoisted evaluations after one check
	}{
		{"plain", nil, false, 1},
		{"tracing", []Option{WithTracing()}, false, 0},
		{"request-trace", nil, true, 0},
		{"timeout", []Option{WithEvaluatorTimeout(time.Second)}, false, 1},
		{"wrapper", []Option{identity}, false, 1}, // the identity wrapper returns the CondCompiler itself
		{"timeout+tracing", []Option{WithEvaluatorTimeout(time.Second), WithTracing()}, false, 0},
		{"timeout+wrapper+tracing", []Option{WithEvaluatorTimeout(time.Second), identity, WithTracing()}, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var comp, interp atomic.Int64
			a := New(tc.opts...)
			a.Register("fastyes", AuthorityAny, fastEval{
				out: MetOutcome(ClassSelector, "yes"), compiled: &comp, interp: &interp,
			})
			p := memPolicy(t, a, "pos_access_right apache *\npre_cond_fastyes local")
			const checks = 3
			for i := 0; i < checks; i++ {
				req := simpleRequest()
				req.Trace = tc.traceReq
				if ans := checkAuth(t, a, p, req); ans.Decision != Yes {
					t.Fatalf("decision = %v, want yes", ans.Decision)
				}
			}
			if got := a.CompileStats().Runs; got != checks {
				t.Errorf("runs = %d, want %d", got, checks)
			}
			if got := comp.Load(); got != checks*tc.wantHoists {
				t.Errorf("hoisted evaluations = %d, want %d", got, checks*tc.wantHoists)
			}
			if got := interp.Load(); got != checks*(1-tc.wantHoists) {
				t.Errorf("evaluator calls = %d, want %d", got, checks*(1-tc.wantHoists))
			}
		})
	}
}

// TestCompiledTimeoutCutsOffCustomEvaluator: the deadline guards every
// dynamic call on the compiled walk.
func TestCompiledTimeoutCutsOffCustomEvaluator(t *testing.T) {
	a := New(WithEvaluatorTimeout(10 * time.Millisecond))
	release := make(chan struct{})
	defer close(release)
	a.RegisterFunc("hang", AuthorityAny, func(ctx context.Context, _ eacl.Condition, _ *Request) Outcome {
		<-release
		return MetOutcome(ClassSelector, "late")
	})
	p := memPolicy(t, a, "pos_access_right apache *\npre_cond_hang local")
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Fatalf("decision = %v, want maybe", ans.Decision)
	}
	if len(ans.Faults) != 1 || ans.Faults[0].Kind != FaultTimeout {
		t.Fatalf("faults = %+v, want one FaultTimeout", ans.Faults)
	}
	if got := a.SupervisionStats().Timeouts; got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	if got := a.CompileStats().Runs; got != 1 {
		t.Errorf("runs = %d, want 1", got)
	}
}

// TestCompiledWrapperSeesEveryEvaluation: an evaluator behind a wrapper
// is not a CondCompiler, so nothing of it is hoisted and an injector
// observes exactly the conditions evaluated.
func TestCompiledWrapperSeesEveryEvaluation(t *testing.T) {
	var comp, interp, seen atomic.Int64
	a := New(WithEvaluatorWrapper(func(ev Evaluator) Evaluator {
		return EvaluatorFunc(func(ctx context.Context, c eacl.Condition, r *Request) Outcome {
			seen.Add(1)
			return ev.Evaluate(ctx, c, r)
		})
	}))
	a.Register("fastyes", AuthorityAny, fastEval{
		out: MetOutcome(ClassSelector, "yes"), compiled: &comp, interp: &interp,
	})
	a.Register("fastno", AuthorityAny, fastEval{
		out: FailedOutcome(ClassSelector, "no"), compiled: &comp, interp: &interp,
	})
	// Entry 1: yes, no (ends the entry; the third is never reached).
	// Entry 2: yes, with a request-result condition.
	p := memPolicy(t, a, `
neg_access_right apache *
pre_cond_fastyes local
pre_cond_fastno local
pre_cond_fastyes local unreached

pos_access_right apache *
pre_cond_fastyes local
rr_cond_fastyes local
`)
	if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != Yes {
		t.Fatalf("decision = %v, want yes", ans.Decision)
	}
	const evaluated = 4
	if seen.Load() != evaluated || interp.Load() != evaluated {
		t.Errorf("wrapper saw %d calls, evaluator %d, want %d each", seen.Load(), interp.Load(), evaluated)
	}
	if comp.Load() != 0 {
		t.Errorf("hoisted evaluations = %d, want 0 behind a wrapper", comp.Load())
	}
	if st := a.CompileStats(); st.FastConds != 0 || st.Runs != 1 {
		t.Errorf("stats = %+v, want no fast conds and one run", st)
	}
}

func TestCompiledPanicDegradesPerOccurrence(t *testing.T) {
	var comp, interp atomic.Int64
	a := New()
	a.Register("boom", AuthorityAny, fastEval{
		out: MetOutcome(ClassSelector, "unreached"), compiled: &comp, interp: &interp, panics: true,
	})
	// The same condition appears in two composed EACLs: a faulted
	// outcome must not be memoized across them, so each scan degrades,
	// faults and traces on its own, exactly as interpretation would.
	p := localPolicy(
		mustEACL(t, "pos_access_right apache *\npre_cond_boom local x"),
		mustEACL(t, "pos_access_right apache *\npre_cond_boom local x"),
	)
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != Maybe {
		t.Fatalf("decision under panic = %v, want maybe", ans.Decision)
	}
	if comp.Load() != 2 {
		t.Errorf("compiled evaluations = %d, want 2 (faults not memoized)", comp.Load())
	}
	if len(ans.Faults) != 2 {
		t.Fatalf("faults = %d, want 2", len(ans.Faults))
	}
	for _, f := range ans.Faults {
		if f.Kind != FaultPanic {
			t.Errorf("fault kind = %v, want panic", f.Kind)
		}
	}
	if len(ans.Trace) != 2 {
		t.Errorf("fault trace events = %d, want 2 (faults trace even untraced)", len(ans.Trace))
	}
	if got := a.SupervisionStats().Panics; got != 2 {
		t.Errorf("supervision panics = %d, want 2", got)
	}
}

func TestCompiledChallengeAndDeciders(t *testing.T) {
	var comp, interp atomic.Int64
	a := New()
	a.Register("reqno", AuthorityAny, fastEval{
		out: Outcome{
			Result: No, Class: ClassRequirement,
			Challenge: `Basic realm="compiled"`, Detail: "denied",
		},
		compiled: &comp, interp: &interp,
	})
	p := memPolicy(t, a, `
pos_access_right apache *
pre_cond_reqno local
mid_cond_quota local cpu_ms<=50
post_cond_audit local x
`)
	ans := checkAuth(t, a, p, simpleRequest())
	if ans.Decision != No || !ans.Applicable {
		t.Fatalf("decision = %v applicable=%v, want applicable no", ans.Decision, ans.Applicable)
	}
	if ans.Challenge != `Basic realm="compiled"` {
		t.Errorf("challenge = %q", ans.Challenge)
	}
	// The deciding entry's mid/post blocks ride on the answer exactly
	// as on the interpreted path.
	if len(ans.Mid) != 1 || ans.Mid[0].Type != "quota" {
		t.Errorf("mid conditions = %+v, want the quota condition", ans.Mid)
	}
	if len(ans.Post) != 1 || ans.Post[0].Type != "audit" {
		t.Errorf("post conditions = %+v, want the audit condition", ans.Post)
	}
}

// TestCompiledZeroAllocUncachedGrant pins the hoisted grant at 0
// allocs/op — also under WithEvaluatorTimeout, where only dynamic
// conditions pay the deadline's goroutine.
func TestCompiledZeroAllocUncachedGrant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops 1 in 4 Puts under race; pooled paths allocate by design there")
	}
	for name, opts := range map[string][]Option{
		"plain":   nil,
		"timeout": {WithEvaluatorTimeout(time.Second)},
	} {
		t.Run(name, func(t *testing.T) {
			a := New(opts...)
			var comp, interp atomic.Int64
			a.Register("fastyes", AuthorityAny, fastEval{
				out: MetOutcome(ClassSelector, "yes"), compiled: &comp, interp: &interp,
			})
			p := memPolicy(t, a, `
neg_access_right apache GET /private/*
pre_cond_fastyes local

pos_access_right apache *
pre_cond_fastyes local
`)
			req := simpleRequest()
			ans := new(Answer)
			ctx := context.Background()
			allocs := testing.AllocsPerRun(200, func() {
				if err := a.CheckAuthorizationInto(ctx, p, req, ans); err != nil {
					t.Fatal(err)
				}
				if ans.Decision != Yes {
					t.Fatalf("decision = %v, want yes", ans.Decision)
				}
			})
			if allocs != 0 {
				t.Errorf("compiled grant allocates %v per op, want 0", allocs)
			}
		})
	}
}

func TestCompiledUnitCapResets(t *testing.T) {
	a := New()
	// Every iteration parses a fresh EACL: each compiles a new unit,
	// driving the table past maxCompiledEACLs and through the reset
	// branch without unbounded growth.
	const n = maxCompiledEACLs + 10
	for i := 0; i < n; i++ {
		p := localPolicy(mustEACL(t, "pos_access_right apache *"))
		if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != Yes {
			t.Fatalf("decision = %v, want yes", ans.Decision)
		}
	}
	if got := len(*a.progs.units.Load()); got != 10 {
		t.Errorf("unit table holds %d entries after the reset, want 10", got)
	}
	if st := a.CompileStats(); st.Programs != n {
		t.Errorf("programs = %d, want %d", st.Programs, n)
	}
}

func TestCompiledStatsCountConds(t *testing.T) {
	var comp, interp atomic.Int64
	a := New()
	a.Register("fastyes", AuthorityAny, fastEval{
		out: MetOutcome(ClassSelector, "yes"), compiled: &comp, interp: &interp,
	})
	a.RegisterFunc("dyn", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return MetOutcome(ClassSelector, "dyn")
	})
	p := memPolicy(t, a, `
pos_access_right apache *
pre_cond_fastyes local
pre_cond_dyn local
pre_cond_fastyes local @adaptive
`)
	checkAuth(t, a, p, simpleRequest())
	st := a.CompileStats()
	if st.FastConds != 1 {
		t.Errorf("fast conds = %d, want 1", st.FastConds)
	}
	// The plain function and the '@' reference both stay dynamic.
	if st.DynamicConds != 2 {
		t.Errorf("dynamic conds = %d, want 2", st.DynamicConds)
	}
}

// TestCompiledUnitsAreShared pins the unit of compilation: 64
// compositions over one system EACL compile 65 units, not 64 × 2, and
// neither an empty nor a 12-EACL composition is a special case.
func TestCompiledUnitsAreShared(t *testing.T) {
	a := New()
	system := []*eacl.EACL{mustEACL(t, "eacl_mode narrow\nneg_access_right apache GET /private/*")}
	for i := 0; i < 64; i++ {
		local := mustEACL(t, fmt.Sprintf("pos_access_right apache GET /obj-%d\npos_access_right apache *", i))
		p := NewPolicy("/x", system, []*eacl.EACL{local})
		if ans := checkAuth(t, a, p, simpleRequest()); ans.Decision != Yes {
			t.Fatalf("composition %d: decision = %v, want yes", i, ans.Decision)
		}
	}
	if st := a.CompileStats(); st.Programs != 65 || st.Runs != 64 {
		t.Errorf("stats = %+v, want 65 units over 64 runs", st)
	}

	if ans := checkAuth(t, a, NewPolicy("/x", nil, nil), simpleRequest()); ans.Decision != Maybe || ans.Applicable {
		t.Errorf("empty composition: %v applicable=%v, want inapplicable maybe", ans.Decision, ans.Applicable)
	}
	var twelve []*eacl.EACL
	for i := 0; i < 12; i++ {
		twelve = append(twelve, mustEACL(t, "pos_access_right apache *"))
	}
	if ans := checkAuth(t, a, localPolicy(twelve...), simpleRequest()); ans.Decision != Yes {
		t.Errorf("12-EACL composition: decision = %v, want yes", ans.Decision)
	}
	if st := a.CompileStats(); st.Programs != 77 || st.Runs != 66 {
		t.Errorf("stats = %+v, want 77 units over 66 runs", st)
	}
}
