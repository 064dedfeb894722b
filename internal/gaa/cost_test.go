package gaa

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gaaapi/internal/costpin"
	"gaaapi/internal/eacl"
	"gaaapi/internal/metrics"
)

// TestCost is the package's cost ledger (internal/costpin): what a
// decision, a policy lookup and a revision check allocate, each count in
// testdata/cost.golden. The tests after it pin parts of it by name.
func TestCost(t *testing.T) {
	costpin.Check(t, slices.Concat(
		compiledGrantRows(t),
		memoFillRows(t),
		meteredGrantRows(t),
		[]costpin.Row{
			{Name: "grant behind 20 non-covering signatures", What: "nothing: the posting lists visit what covers the right", Run: signatureGrant(t, 20), NoRace: true},
			{Name: "grant behind 2000 non-covering signatures", What: "nothing, as behind 20", Run: signatureGrant(t, 2000), NoRace: true},
			{Name: "MemorySource.Policies over 8 patterns", What: "nothing: one match is a slice of the source's own list, and the match bitset stays on the stack", Run: patternLookup(t, 8)},
			{Name: "MemorySource.Policies over 2048 patterns", What: "nothing, as over 8", Run: patternLookup(t, 2048)},
		},
		cacheHitRows(t),
		cacheMissRows(t),
		revisionRows(t),
		cacheHeapRows(t),
		phaseRows(t),
	))
}

func TestCompiledZeroAllocUncachedGrant(t *testing.T) {
	for i, name := range []string{"plain", "timeout"} {
		t.Run(name, func(t *testing.T) { costpin.CheckRows(t, compiledGrantRows(t)[i:i+1]) })
	}
}

func TestCompiledZeroAllocMemoFill(t *testing.T)   { costpin.CheckRows(t, memoFillRows(t)) }
func TestLaterPhaseAllocs(t *testing.T)            { costpin.CheckRows(t, phaseRows(t)) }
func TestMetricsZeroAllocCachedGrant(t *testing.T) { costpin.CheckRows(t, meteredGrantRows(t)) }
func TestCacheZeroAllocHit(t *testing.T)           { costpin.CheckRows(t, cacheHitRows(t)) }
func TestDirSourceRevisionAllocs(t *testing.T)     { costpin.CheckRows(t, revisionRows(t)) }

// grantRun is a grant of a on p that wants yes.
func grantRun(t *testing.T, a *API, p *Policy) func() {
	ctx, req, ans := context.Background(), simpleRequest(), new(Answer)
	return func() {
		if err := a.CheckAuthorizationInto(ctx, p, req, ans); err != nil || ans.Decision != Yes {
			t.Fatalf("decision = %v, %v; want yes", ans.Decision, err)
		}
	}
}

// compiledGrantRows are the hoisted grant on an uncached policy, plain
// and under WithEvaluatorTimeout.
func compiledGrantRows(t *testing.T) []costpin.Row {
	compiled := func(opts ...Option) func() {
		a := newMemoAPI(opts...)
		return grantRun(t, a, memPolicy(t, a, "neg_access_right apache GET /private/*\npre_cond_fastyes local\n\npos_access_right apache *\npre_cond_fastyes local\n"))
	}
	return []costpin.Row{
		{Name: "compiled grant, uncached policy", What: "nothing: the hoisted grant evaluates in pooled state", Run: compiled(), NoRace: true},
		{Name: "compiled grant under WithEvaluatorTimeout", What: "nothing: only a dynamic condition pays the deadline's goroutine", Run: compiled(WithEvaluatorTimeout(time.Second)), NoRace: true},
	}
}

// memoFillRows is a grant that fills a cached policy's rights memo:
// every measured check meets a policy nobody has checked.
func memoFillRows(t *testing.T) []costpin.Row {
	a := newMemoAPI(WithPolicyCache(2 * (costpin.Runs + 1)))
	src := NewMemorySource()
	if err := src.AddPolicy("*", memoPolicyText(20)); err != nil {
		t.Fatal(err)
	}
	fresh := make([]*Policy, costpin.Runs+1)
	for i := range fresh {
		p, err := a.GetObjectPolicyInfo(fmt.Sprintf("/doc%d.html", i), nil, []PolicySource{src})
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = p
	}
	ctx, req, ans, next := context.Background(), simpleRequest(), new(Answer), 0
	req.Label = "apache " + req.Rights[0].Value
	t.Cleanup(func() {
		if costpin.Race {
			return
		}
		for i, p := range fresh {
			if st := p.rights.state.Load(); st != memoReady || p.rights.label() != req.Label {
				t.Fatalf("policy %d: memo state %d with label %q, want ready with %q", i, st, p.rights.label(), req.Label)
			}
		}
	})
	return []costpin.Row{{Name: "compiled grant filling a cached policy's rights memo", What: "nothing: the memo is a field of the policy (§5.1)", Run: func() {
		if err := a.CheckAuthorizationInto(ctx, fresh[next], req, ans); err != nil || ans.Decision != Yes {
			t.Fatalf("decision = %v, %v; want yes", ans.Decision, err)
		}
		next++
	}, NoRace: true}}
}

// meteredGrantRows is a cached grant with the metrics layer on.
func meteredGrantRows(t *testing.T) []costpin.Row {
	a := New(WithMetrics(metrics.NewRegistry()), WithPolicyCache(16))
	src := NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	p, err := a.GetObjectPolicyInfo("/x", nil, []PolicySource{src})
	if err != nil {
		t.Fatal(err)
	}
	return []costpin.Row{{Name: "cached grant with WithMetrics", What: "nothing: the instruments cost the grant no allocation", Run: grantRun(t, a, p), NoRace: true}}
}

// cacheHitRows is a hit on a full production-size policy cache.
func cacheHitRows(t *testing.T) []costpin.Row {
	a, system, local, objects := fullCache(t, 1024)
	hot := objects[len(objects)-1]
	hits := a.CacheStats().Hits
	t.Cleanup(func() {
		if got := a.CacheStats().Hits - hits; got < costpin.Runs {
			t.Errorf("only %d of the measured cache lookups hit", got)
		}
	})
	return []costpin.Row{{Name: "policy-cache hit, 1024 entries", What: "nothing", Run: func() {
		if _, err := a.GetObjectPolicyInfo(hot, system, local); err != nil {
			t.Fatal(err)
		}
	}}}
}

// cacheMissRows are misses on full caches of 64 and 1024 entries, for
// an object one pattern governs and one two govern.
func cacheMissRows(t *testing.T) []costpin.Row {
	small, _, small1, small2 := missCycles(t, 64)
	big, _, big1, big2 := missCycles(t, 1024)
	hits := small.CacheStats().Hits + big.CacheStats().Hits
	t.Cleanup(func() {
		if got := small.CacheStats().Hits + big.CacheStats().Hits - hits; got != 0 {
			t.Errorf("%d of the measured misses hit; the cycles should always miss", got)
		}
	})
	const entry = "the cache entry: the object's Policy, its rights memo (§5.1) with the label's bytes, pointing at the composition its objects share"
	const two = "the entry, and the slice one MemorySource composes two patterns into, dropped for the composition already shared"
	return []costpin.Row{
		{Name: "policy-cache miss, 64 entries", What: entry, Run: small1},
		{Name: "policy-cache miss, 1024 entries", What: entry, Run: big1},
		{Name: "policy-cache miss, two patterns govern, 64 entries", What: two, Run: small2},
		{Name: "policy-cache miss, two patterns govern, 1024 entries", What: two, Run: big2},
	}
}

// heapKept holds each heap row's API live while its heap is measured.
var heapKept [2]*API

// cacheHeapRows bound what a full NewStack-size cache keeps: entries
// for sprawl's shape, 64 directory policies over 16 384 objects, and the
// longest objects the cache keeps, which is what a client sending
// distinct paths can make it hold. Each lookup also asks for the
// object's label, as the guard does: a label that fits lives in the
// entry, a longer one is built and not kept.
func cacheHeapRows(t *testing.T) []costpin.Row {
	sys, loc := NewMemorySource(), NewMemorySource()
	if err := sys.AddPolicy("*", "neg_access_right apache GET /cgi-bin/*\n"); err != nil {
		t.Fatal(err)
	}
	objects := make([]string, 0, 64*256)
	for d := 0; d < 64; d++ {
		if err := loc.AddPolicy(fmt.Sprintf("/d%02d/*", d), "pos_access_right apache *"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 256; i++ {
			objects = append(objects, fmt.Sprintf("/d%02d/doc%03d.html", d, i))
		}
	}
	system, local := []PolicySource{sys}, []PolicySource{loc}
	fill := func(row int, object func(i int) string) func() {
		return func() {
			a := New(WithPolicyCache(4096))
			for i := 0; i < 4*4096; i++ {
				o := object(i)
				p, err := a.GetObjectPolicyInfo(o, system, local)
				if err != nil {
					t.Fatal(err)
				}
				p.RightLabel("apache", "GET", o)
			}
			if n := a.cache.len(); n != 4096 {
				t.Fatalf("cache holds %d entries, want 4096 (full)", n)
			}
			heapKept[row] = a
		}
	}
	t.Cleanup(func() { heapKept = [2]*API{} })
	return []costpin.Row{
		{Name: "4096 cached objects under 64 compositions", What: "a 208 B entry each, the label inside it, and the sets, the compositions and the source's index: ≤ 4096 × 208 B + 96 KiB",
			Run: fill(0, func(i int) string { return objects[i] }), MaxBytes: 4096*208 + 96<<10, NoRace: true},
		{Name: "4096 cached objects of 768 B, the longest kept", What: "each object's bytes and its entry, and no label: ≤ 4 MiB",
			Run: fill(1, func(i int) string {
				return fmt.Sprintf("/d%02d/%0*d", i%64, maxCachedObject-5, i)
			}), MaxBytes: 4 << 20, NoRace: true},
	}
}

// revisionRows are DirSource revision checks on the benchmark's site
// shape: a root .eacl, docs/ without one.
func revisionRows(t *testing.T) []costpin.Row {
	root := t.TempDir()
	mkdir(t, filepath.Join(root, "docs"))
	writeFile(t, filepath.Join(root, ".eacl"), chainPolicyOld)
	dir := NewSwappableSource(NewDirSource(root, ".eacl"))
	revision := func(object string) func() {
		if _, err := dir.Revision(object); err != nil {
			t.Fatal(err)
		}
		return func() { dir.Revision(object) }
	}
	return []costpin.Row{
		{Name: "DirSource revision, /index.html", What: "nothing: the revision is a constant of the loaded tree, behind the swap's generation", Run: revision("/index.html"), NoRace: true},
		{Name: "DirSource revision, /docs/guide.html", What: "nothing, as for /index.html: no stat, however deep the object", Run: revision("/docs/guide.html"), NoRace: true},
	}
}

// usageQuota is a quota evaluator of this package's tests, "<param><=<n>"
// over a usage parameter, which hoists as a requirement the way
// mid_cond_quota does.
type usageQuota struct{}

type quotaTest struct {
	NoChallenge
	param string
	bound int64
}

func parseQuota(value string) (quotaTest, bool) {
	param, bound, ok := strings.Cut(value, "<=")
	n, err := strconv.ParseInt(bound, 10, 64)
	return quotaTest{param: param, bound: n}, ok && err == nil
}

func (usageQuota) CompileCond(c eacl.Condition) (CompiledCond, bool) { return parseQuota(c.Value) }

func (usageQuota) Evaluate(_ context.Context, c eacl.Condition, r *Request) Outcome {
	q, ok := parseQuota(c.Value)
	if !ok {
		return Outcome{Result: Maybe, Unevaluated: true, Err: fmt.Errorf("bad quota %q", c.Value)}
	}
	v := q.EvalCompiled(r)
	if v.Result() == Maybe {
		return UnevaluatedOutcome("no usage parameter " + q.param)
	}
	return Outcome{Result: v.Result(), Class: ClassRequirement}
}

func (q quotaTest) EvalCompiled(r *Request) CondVerdict {
	n, ok := r.Params.GetInt(q.param, AuthorityAny)
	switch {
	case !ok:
		return CondMaybe
	case n <= q.bound:
		return CondYes | CondRequirement
	default:
		return CondNo | CondRequirement
	}
}

// failureAudit is an action of this package's tests that counts its
// calls and the runs it fires on: "on:failure" fires when the phase
// status is No.
type failureAudit struct{ calls, fired *atomic.Int64 }

func (f failureAudit) Evaluate(_ context.Context, c eacl.Condition, r *Request) Outcome {
	f.calls.Add(1)
	status := r.Decision
	if c.Block == eacl.BlockPost {
		status = r.OpStatus
	}
	if c.Value == "on:failure" && status != No {
		return MetOutcome(ClassAction, "trigger not matched")
	}
	f.fired.Add(1)
	return MetOutcome(ClassAction, "audited")
}

func (f failureAudit) CompileTrigger(c eacl.Condition) func(Decision) bool {
	return func(status Decision) bool { return c.Value != "on:failure" || status == No }
}

// phaseRows are the later phases of a monitored grant: a mid check
// within its quota and one over it, and the post phase of a grant whose
// audit fires on failure, after a run that succeeded and one that
// failed.
func phaseRows(t *testing.T) []costpin.Row {
	var calls, fired atomic.Int64
	a := New()
	a.Register("quota", AuthorityAny, usageQuota{})
	a.Register("audit", AuthorityAny, failureAudit{&calls, &fired})
	p := memPolicy(t, a, "pos_access_right apache GET /cgi-bin/*\nmid_cond_quota local cpu_ms<=250\npost_cond_audit local on:failure\n")
	ctx, req := context.Background(), NewRequest("apache", "GET /cgi-bin/search")
	ans := checkAuth(t, a, p, req)
	mid := func(cpu string, want Decision) func() {
		usage := []Param{{Type: ParamCPUMillis, Authority: AuthorityAny, Value: cpu}, {Type: ParamWallMillis, Authority: AuthorityAny, Value: "3"}}
		return func() {
			if dec, _ := a.ExecutionControl(ctx, ans, req, usage...); dec != want {
				t.Fatalf("ExecutionControl at cpu_ms=%s = %v, want %v", cpu, dec, want)
			}
		}
	}
	post := func(op Decision, fires int64) func() {
		return func() {
			before := fired.Load()
			if dec, _ := a.PostExecutionActions(ctx, ans, req, op); dec != Yes || fired.Load()-before != fires {
				t.Fatalf("PostExecutionActions(%v) = %v firing %d audits, want yes firing %d", op, dec, fired.Load()-before, fires)
			}
		}
	}
	return []costpin.Row{
		{Name: "ExecutionControl, quota holds", What: "nothing: the hoisted quota reads the usage from the pooled phase state", Run: mid("20", Yes)},
		{Name: "ExecutionControl, quota violated", What: "nothing, as when it holds", Run: mid("400", No)},
		{Name: "PostExecutionActions, on:failure audit after success", What: "nothing: an action that cannot fire is not called, and the phase takes no state", Run: post(Yes, 0)},
		{Name: "PostExecutionActions, on:failure audit after failure", What: "nothing: the action runs on the pooled phase state", Run: post(No, 1)},
	}
}
