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
	trace  bool

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

// WithTracing records a TraceEvent for every evaluation step in the
// answers this API produces (audit logs, cmd/eaclint --explain).
// Tracing is off by default: the Yes/No fast path then performs no
// trace bookkeeping at all. A single request can opt in instead by
// setting Request.Trace.
func WithTracing() Option {
	return optionFunc(func(a *API) { a.trace = true })
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

// Registered lists registered (type, authority) pairs for diagnostics.
func (a *API) Registered() []string {
	return a.reg.registered()
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

// InvalidateCache drops all cached policies and compiled decision
// units.
func (a *API) InvalidateCache() {
	if a.cache != nil {
		a.cache.invalidate()
	}
	a.progs.invalidate()
}

// GetObjectPolicyInfo retrieves and composes the policies governing
// object (the paper's gaa_get_object_policy_info): system-wide EACLs
// first, then local ones, with the composition mode taken from the
// system-wide policy. Results are cached when the API was built with
// WithPolicyCache; hits and misses are both lock-free. Concurrent misses
// for one object each compose the policy (sources memoize their parses,
// see PolicySource) and the last one published stays cached.
func (a *API) GetObjectPolicyInfo(object string, system, local []PolicySource) (*Policy, error) {
	if a.cache == nil {
		return a.composePolicy(object, system, local)
	}
	// Hit path: compare each source's revision against the one recorded
	// at composition time, element-wise. No revision key is built and
	// each source's Revision is consulted exactly once.
	set, e := a.cache.lookup(object)
	if e != nil && e.nsys == len(system) && e.nloc == len(local) {
		ok, err := e.fresh(object, system, local)
		if err != nil {
			return nil, fmt.Errorf("policy revision for %q: %w", object, err)
		}
		if ok {
			set.hit(e)
			return e.policy, nil
		}
	}
	set.miss()

	// Miss path: record the revisions before composing, so a source that
	// changes in between leaves an entry the next lookup finds stale.
	revs := make([]string, 0, len(system)+len(local))
	for _, srcs := range [2][]PolicySource{system, local} {
		for _, src := range srcs {
			r, err := src.Revision(object)
			if err != nil {
				return nil, fmt.Errorf("policy revision for %q: %w", object, err)
			}
			revs = append(revs, r)
		}
	}
	p, err := a.composePolicy(object, system, local)
	if err != nil {
		return nil, err
	}
	a.cache.put(set, object, revs, len(system), len(local), p)
	return p, nil
}

// composePolicy reads every source and builds the composed policy (the
// uncached retrieval-and-translation step of section 6, step 2a).
func (a *API) composePolicy(object string, system, local []PolicySource) (*Policy, error) {
	sysEACLs, err := gatherLevel("system", object, system)
	if err != nil {
		return nil, err
	}
	locEACLs, err := gatherLevel("local", object, local)
	if err != nil {
		return nil, err
	}
	return NewPolicy(object, sysEACLs, locEACLs), nil
}

// gatherLevel concatenates what the sources of one level say about
// object. The first contributing source's slice is adopted, not copied
// (it is the caller's, see PolicySource), with its capacity clipped so
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
// phase) and the deciding-entry buffer. Pooling it makes a
// trace-disabled grant on a cached policy allocation-free.
//
// Evaluators receive a pointer to the pooled Request copy and must not
// retain it beyond the Evaluate call (they may retain the ParamList,
// which is never mutated in place).
type evalState struct {
	req      Request
	deciders []decidingEntry
	// cs is the scan's working set (bitsets and the fast-cond memo
	// table), kept warm across pool cycles.
	cs compiledScratch
}

var statePool = sync.Pool{New: func() any { return new(evalState) }}

func (a *API) getState(req *Request) *evalState {
	st := statePool.Get().(*evalState)
	st.req = *req
	st.req.Trace = a.trace || req.Trace
	if st.req.Time.IsZero() {
		st.req.Time = a.clock()
	}
	return st
}

func putState(st *evalState) {
	st.req = Request{}
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
// conditions of every deciding entry run with the decision visible —
// and recycles st.
func (a *API) conclude(ctx context.Context, st *evalState, res *evalResult, ans *Answer) {
	*ans = Answer{
		Decision:    res.Decision,
		Applicable:  res.Applicable,
		Unevaluated: res.unevaluated,
		Challenge:   res.Challenge,
		Mid:         ans.Mid[:0],
		Post:        ans.Post[:0],
		Trace:       res.trace,
		Faults:      res.faults,
	}
	r := &st.req
	r.Decision = ans.Decision
	for _, d := range st.deciders {
		dec, evaluated := a.evaluateBlock(ctx, d.source, d.entry.Line, d.entry.Conditions, eacl.BlockRequestResult, r, &ans.Trace, &ans.Faults)
		if evaluated {
			ans.Decision = Conjoin(ans.Decision, dec)
		}
		// Later phases enforce the deciding entries' mid/post blocks.
		appendBlock(&ans.Mid, d.entry, eacl.BlockMid)
		appendBlock(&ans.Post, d.entry, eacl.BlockPost)
	}
	putState(st)
}

// appendBlock appends the entry's conditions of the given block to
// *dst, allocating only when the block is non-empty.
func appendBlock(dst *[]eacl.Condition, entry *eacl.Entry, b eacl.Block) {
	for i := range entry.Conditions {
		if entry.Conditions[i].Block == b {
			*dst = append(*dst, entry.Conditions[i])
		}
	}
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
	st := a.getState(req)
	r := &st.req
	r.Decision = ans.Decision
	r.Params = r.Params.With(usage...)
	var trace []TraceEvent
	dec, _ := a.evaluateBlock(ctx, "mid", 0, ans.Mid, eacl.BlockMid, r, &trace, nil)
	putState(st)
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
	st := a.getState(req)
	r := &st.req
	r.Decision = ans.Decision
	r.OpStatus = opStatus
	r.Params = r.Params.With(Param{
		Type:      ParamOpStatusName,
		Authority: AuthorityAny,
		Value:     opStatus.String(),
	})
	var trace []TraceEvent
	dec, _ := a.evaluateBlock(ctx, "post", 0, ans.Post, eacl.BlockPost, r, &trace, nil)
	putState(st)
	if m != nil {
		m.post.record(sampled, start, m.weight, dec)
	}
	return dec, trace
}
