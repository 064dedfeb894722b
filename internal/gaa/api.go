package gaa

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gaaapi/internal/eacl"
)

// API is the GAA-API entry point: a condition-evaluator registry plus
// the three enforcement phases. It is safe for concurrent use; in the
// paper's integration one API instance serves the whole web server.
type API struct {
	reg    *registry
	clock  func() time.Time
	cache  *policyCache
	values ValueProvider

	// Supervision (see supervise.go): per-evaluator deadline, the
	// fault-injection seam, and degraded-mode counters.
	evalTimeout time.Duration
	wrapEval    func(Evaluator) Evaluator
	sup         supervisionCounters

	// metrics holds the hot-path instruments installed by WithMetrics;
	// nil keeps every phase completely uninstrumented.
	// metricsSampleShift is the WithMetricsSampling configuration (0:
	// time every phase execution).
	metrics            *apiInstruments
	metricsSampleShift uint

	// Decision engine (compiled.go): the compiled-unit cache and its
	// counters.
	progs    programTable
	compiled compileCounters
	// comps interns compositions (compose.go).
	comps compositionTable
}

// Option configures an API.
type Option interface {
	apply(*API)
}

type optionFunc func(*API)

func (f optionFunc) apply(a *API) { f(a) }

// WithClock overrides the time source (tests, deterministic replay).
func WithClock(now func() time.Time) Option {
	return optionFunc(func(a *API) { a.clock = now })
}

// WithPolicyCache enables the composed-policy cache (paper section 9
// future work) holding up to maxEntries objects. Cached policies are
// invalidated when any contributing source's revision changes.
func WithPolicyCache(maxEntries int) Option {
	return optionFunc(func(a *API) { a.cache = newPolicyCache(maxEntries) })
}

// WithValues installs the runtime value provider that resolves '@name'
// references in condition values (paper section 2's adaptive
// constraint specification). Without a provider, conditions carrying
// references evaluate to MAYBE.
func WithValues(p ValueProvider) Option {
	return optionFunc(func(a *API) { a.values = p })
}

// New initializes the GAA-API (the paper's gaa_initialize).
func New(opts ...Option) *API {
	a := &API{
		reg:   newRegistry(),
		clock: time.Now,
	}
	for _, o := range opts {
		o.apply(a)
	}
	return a
}

// Register installs an evaluator for (condType, defAuth). Use
// AuthorityAny as defAuth for an evaluator serving every authority.
// Registration may happen at any time; web masters "can write their own
// routines ... and register them with the GAA-API" (paper section 5).
// Every evaluator is registered behind the supervision layer: panics
// are recovered, deadlines (WithEvaluatorTimeout) enforced, and
// failures degraded to MAYBE with a recorded Fault instead of killing
// the request.
func (a *API) Register(condType, defAuth string, ev Evaluator) {
	a.reg.register(condType, defAuth, a.supervise(ev))
}

// RegisterFunc is Register for plain functions.
func (a *API) RegisterFunc(condType, defAuth string, fn EvaluatorFunc) {
	a.Register(condType, defAuth, fn)
}

// Known reports whether an evaluator is registered for the pair; it is
// the callback the eacl validator wants.
func (a *API) Known(condType, defAuth string) bool {
	return a.reg.known(condType, defAuth)
}

// Now returns the API clock time.
func (a *API) Now() time.Time {
	return a.clock()
}

// CacheStats returns policy-cache counters; zero when caching is off.
func (a *API) CacheStats() CacheStats {
	if a.cache == nil {
		return CacheStats{}
	}
	return a.cache.snapshot()
}

// maxCachedObject is the longest object the policy cache keeps: the
// request line is the client's to size, and the cache would keep it.
// 4096 such keys and their entries are under 4 MiB.
const maxCachedObject = 768

// GetObjectPolicyInfo retrieves and composes the policies governing
// object (the paper's gaa_get_object_policy_info): system-wide EACLs
// first, then local ones, with the composition mode taken from the
// system-wide policy. What the sources say is composed once, into a
// composition every object they say the same of shares. Results are
// cached when the API was built with WithPolicyCache; hits and misses
// are both lock-free. Concurrent misses for one object each compose the
// policy (sources memoize their parses, see PolicySource) and the last
// one published stays cached. An object longer than maxCachedObject is
// composed uncached and counted as neither.
func (a *API) GetObjectPolicyInfo(object string, system, local []PolicySource) (*Policy, error) {
	if a.cache == nil || len(object) > maxCachedObject {
		c, err := a.compose(object, system, local)
		if err != nil {
			return nil, err
		}
		return &Policy{composition: c, Object: object}, nil
	}
	// Hit path: compare each source's revision against the one its
	// composition recorded, element-wise. No revision key is built and
	// each source's Revision is consulted exactly once.
	set, e := a.cache.lookup(object)
	if e != nil {
		ok, err := e.policy.fresh(object, system, local)
		if err != nil {
			return nil, fmt.Errorf("policy revision for %q: %w", object, err)
		}
		if ok {
			set.hit(e)
			return &e.policy, nil
		}
	}
	set.miss()

	// Miss path: one allocation, the entry, unless the sources said
	// something new.
	c, err := a.compose(object, system, local)
	if err != nil {
		return nil, err
	}
	e = &cacheEntry{policy: Policy{composition: c, Object: object}, hash: set.hash}
	a.cache.put(set, e)
	return &e.policy, nil
}

// compose reads every source's revision, then its policies, and returns
// the composition of what they said (the uncached retrieval-and-
// translation step of section 6, step 2a). The revisions are read
// first, so a source that changes in between leaves a composition the
// next lookup finds stale.
func (a *API) compose(object string, system, local []PolicySource) (*composition, error) {
	var inline [4]string
	revs := inline[:0]
	for _, srcs := range [2][]PolicySource{system, local} {
		for _, src := range srcs {
			r, err := src.Revision(object)
			if err != nil {
				return nil, fmt.Errorf("policy revision for %q: %w", object, err)
			}
			revs = append(revs, r)
		}
	}
	sysEACLs, err := gatherLevel("system", object, system)
	if err != nil {
		return nil, err
	}
	locEACLs, err := gatherLevel("local", object, local)
	if err != nil {
		return nil, err
	}
	return a.comps.intern(revs, len(system), sysEACLs, locEACLs), nil
}

// gatherLevel concatenates what the sources of one level say about
// object. The first contributing source's slice is adopted, not copied
// (no one writes to it, see PolicySource), with its capacity clipped so
// that a second source's append reallocates instead of writing into it.
func gatherLevel(level, object string, srcs []PolicySource) ([]*eacl.EACL, error) {
	var out []*eacl.EACL
	for _, s := range srcs {
		es, err := s.Policies(object)
		if err != nil {
			return nil, fmt.Errorf("%s policy for %q: %w", level, object, err)
		}
		if len(out) == 0 {
			out = es[:len(es):len(es)]
		} else {
			out = append(out, es...)
		}
	}
	return out, nil
}

// evalState is the pooled per-request scratch space of the decision
// hot path: the phase-local Request copy (replacing a heap clone per
// phase), the deciding-entry buffer and the later phases' parameter
// list. Pooling it makes a trace-disabled grant on a cached policy
// allocation-free, and the execution-control and post-execution phases
// with it.
//
// Evaluators receive a pointer to the pooled Request copy and must not
// retain it, or its ParamList, beyond the Evaluate call: the list may
// be this state's buffer, rewritten by the next phase that gets it.
// Values are strings, so a value may be kept.
type evalState struct {
	req      Request
	deciders []decidingEntry
	params   ParamList
	// cs is the scan's working set (bitsets and the fast-cond memo
	// table), kept warm across pool cycles.
	cs compiledScratch
	// gen is the registry generation the scan's units compiled at.
	gen uint64
}

var statePool = sync.Pool{New: func() any { return new(evalState) }}

func (a *API) getState(req *Request) *evalState {
	st := statePool.Get().(*evalState)
	st.req = *req
	if st.req.Time.IsZero() {
		st.req.Time = a.clock()
	}
	return st
}

// extendParams points the phase's request at its parameters followed by
// extra, built in st's buffer instead of a fresh list.
func (st *evalState) extendParams(extra ...Param) {
	st.params = append(append(st.params[:0], st.req.Params...), extra...)
	st.req.Params = st.params
}

func putState(st *evalState) {
	st.req = Request{}
	clear(st.params) // the values are the request's strings
	st.params = st.params[:0]
	for i := range st.deciders {
		st.deciders[i] = decidingEntry{}
	}
	st.deciders = st.deciders[:0]
	statePool.Put(st)
}

// CheckAuthorization is phase 1 (the paper's gaa_check_authorization):
// it scans the composed policy, evaluates pre-conditions, determines
// the authorization status, and then activates the request-result
// conditions of every deciding entry with the decision visible to their
// triggers. Per paper section 6 step 2c, the final status is the
// conjunction of the pre-condition result and the request-result
// outcomes.
func (a *API) CheckAuthorization(ctx context.Context, p *Policy, req *Request) (*Answer, error) {
	ans := new(Answer)
	if err := a.CheckAuthorizationInto(ctx, p, req, ans); err != nil {
		return nil, err
	}
	return ans, nil
}

// CheckAuthorizationInto is CheckAuthorization writing into a
// caller-supplied Answer, the zero-allocation entry point for servers
// that reuse a per-connection Answer: with tracing disabled, a grant
// or deny on a cached policy allocates nothing. Any previous contents
// of ans are overwritten, but the arrays behind ans.Mid and ans.Post are
// reused: a caller keeping those lists past the next call copies them.
func (a *API) CheckAuthorizationInto(ctx context.Context, p *Policy, req *Request, ans *Answer) error {
	if p == nil {
		return fmt.Errorf("nil policy")
	}
	var start time.Time
	m := a.metrics
	sampled := m != nil && m.sampleLatency()
	if sampled {
		start = time.Now()
	}
	st := a.getState(req)
	a.compiled.runs.Add(1)
	var res evalResult
	a.evaluatePolicyCompiled(ctx, p, &st.req, st, &res)
	a.conclude(ctx, st, &res, ans)
	if m != nil {
		m.check.record(sampled, start, m.weight, ans.Decision)
	}
	return nil
}

// conclude turns the scan result into the answer — the request-result
// blocks of every deciding entry run with the decision visible — and
// recycles st. Field by field: a literal reading ans.Mid is built
// aside and copied in under the GC's bulk write barrier.
func (a *API) conclude(ctx context.Context, st *evalState, res *evalResult, ans *Answer) {
	ans.Decision, ans.Applicable = res.Decision, res.Applicable
	ans.Unevaluated, ans.Challenge = res.unevaluated, res.Challenge
	ans.Mid = ans.Mid[:0]
	ans.Post = ans.Post[:0]
	clear(ans.later)
	ans.later, ans.gen = ans.later[:0], st.gen
	r := &st.req
	r.Decision = ans.Decision
	for _, d := range st.deciders {
		if d.later == nil {
			continue
		}
		res.source = d.source
		ans.Decision = Conjoin(ans.Decision, a.runBlock(ctx, d.block(eacl.BlockRequestResult), false, r, r.Decision, d.entry.Line, res))
		// Later phases enforce the deciding entries' mid/post blocks.
		mid, post := d.block(eacl.BlockMid), d.block(eacl.BlockPost)
		if len(mid)+len(post) > 0 {
			ans.later = append(ans.later, d.compiledEntry)
		}
		for i := range mid {
			ans.Mid = append(ans.Mid, mid[i].cond)
		}
		for i := range post {
			ans.Post = append(ans.Post, post[i].cond)
		}
	}
	ans.Trace, ans.Faults = res.trace, res.faults
	putState(st)
}

// ExecutionControl is phase 2 (the paper's gaa_execution_control): it
// re-evaluates the mid-conditions attached to the granted rights
// against a usage snapshot supplied as extra parameters (cpu_ms,
// wall_ms, mem_bytes, output_bytes). Yes means the operation may
// continue; No means a mid-condition was violated and the operation
// should be aborted; Maybe means some condition could not be checked.
func (a *API) ExecutionControl(ctx context.Context, ans *Answer, req *Request, usage ...Param) (Decision, []TraceEvent) {
	if len(ans.Mid) == 0 {
		return Yes, nil
	}
	var start time.Time
	m := a.metrics
	sampled := m != nil && m.sampleLatency()
	if sampled {
		start = time.Now()
	}
	dec, trace := a.runPhase(ctx, ans, eacl.BlockMid, req, req.OpStatus, usage...)
	if m != nil {
		m.mid.record(sampled, start, m.weight, dec)
	}
	return dec, trace
}

// PostExecutionActions is phase 3 (the paper's
// gaa_post_execution_actions): it activates the post-conditions of the
// granted rights once the operation finished, with the operation status
// (whether it succeeded or failed) visible to their triggers.
func (a *API) PostExecutionActions(ctx context.Context, ans *Answer, req *Request, opStatus Decision) (Decision, []TraceEvent) {
	if len(ans.Post) == 0 {
		return Yes, nil
	}
	var start time.Time
	m := a.metrics
	sampled := m != nil && m.sampleLatency()
	if sampled {
		start = time.Now()
	}
	dec, trace := a.runPhase(ctx, ans, eacl.BlockPost, req, opStatus, Param{
		Type:      ParamOpStatusName,
		Authority: AuthorityAny,
		Value:     opStatus.String(),
	})
	if m != nil {
		m.post.record(sampled, start, m.weight, dec)
	}
	return dec, trace
}

// runPhase runs block b, mid or post, of the entries that decided ans,
// on req extended by extra with ans's decision and opStatus visible,
// and returns the conjunction of the outcomes and the phase's trace. An
// action's trigger reads the decision in the mid block, opStatus in the
// post block. The pooled request state is taken only for an evaluator
// call, or when req is not the phase's request in what a hoisted test
// reads; after a registration since the scan, the blocks compile afresh.
func (a *API) runPhase(ctx context.Context, ans *Answer, b eacl.Block, req *Request, opStatus Decision, extra ...Param) (Decision, []TraceEvent) {
	status, source := ans.Decision, "mid"
	if b == eacl.BlockPost {
		status, source = opStatus, "post"
	}
	stale := ans.gen != a.reg.generation()
	runs, calls := ans.runs(b, status, stale)
	if !runs {
		return Yes, nil
	}
	r, st := req, (*evalState)(nil)
	if calls || len(extra) > 0 || req.Time.IsZero() {
		st = a.getState(req)
		st.req.Decision, st.req.OpStatus = ans.Decision, opStatus
		st.extendParams(extra...)
		r = &st.req
	}
	res := evalResult{source: source}
	var dec Decision
	for _, e := range ans.later {
		dec = Conjoin(dec, a.runBlock(ctx, e.block(b), stale, r, status, 0, &res))
	}
	if st != nil {
		putState(st)
	}
	return dec, res.trace
}

// runs reports whether running block b for status runs any condition
// (an action that cannot fire does not), and whether one of them calls
// its evaluator, as every condition of a stale block may.
func (ans *Answer) runs(b eacl.Block, status Decision, stale bool) (runs, calls bool) {
	for _, e := range ans.later {
		blk := e.block(b)
		for i := range blk {
			switch cc := &blk[i]; {
			case stale || cc.fast == nil && !cc.skips(status):
				return true, true
			case cc.fast != nil:
				runs = true
			}
		}
	}
	return runs, false
}
