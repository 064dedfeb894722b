package gaa

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gaaapi/internal/eacl"
)

// This file is the first-match decision engine: each EACL is compiled
// once, on first sight, into a decision unit — right globs interned
// into prefix tries, cheap selector conditions (threat level, time
// windows, CIDR membership, group membership, …) hoisted into
// pre-resolved tests evaluated once per request instead of once per
// entry — and the per-request scan walks the composed policy's units.
// Dynamic conditions ('@value' references, custom or wrapped
// evaluators, stateful built-ins) go through evaluateCondition per
// occurrence, so supervision, deadlines, injected faults and adaptive
// values see every one of those calls.
//
// It is the only production scan. reference_test.go keeps the plain
// entry-by-entry interpretation of the same semantics as the oracle:
// for every request both must produce exactly the same answer
// (decision, applicability, challenge, unevaluated conditions, deciding
// entries, faults, trace). compile_diff_test.go enforces that with a
// differential fuzz test and a golden sweep over the repository's
// policies.

// CompiledCond is a condition evaluation specialized at policy-compile
// time: parsing, pattern compilation and static lookups are done once,
// and EvalCompiled performs only the per-request test. Implementations
// must be pure per request — two calls with the same request must
// return the same Outcome — because the engine memoizes the outcome
// across entries of one request. They must produce exactly the Outcome
// the evaluator they were compiled from would produce for a
// trace-disabled request (a traced request evaluates every condition
// through its evaluator instead, so Detail strings stay the
// evaluator's own).
type CompiledCond interface {
	EvalCompiled(req *Request) Outcome
}

// CondCompiler is implemented by evaluators that can specialize some
// of their conditions at policy-compile time. CompileCond returns
// (nil, false) when the condition must stay dynamic (unparseable
// values, per-request state, side effects).
type CondCompiler interface {
	CompileCond(cond eacl.Condition) (CompiledCond, bool)
}

// CompileStats reports compiled-engine activity since the API was
// built.
type CompileStats struct {
	// Programs is the number of EACLs compiled into decision units
	// (recompiles after a registry change or cache reset count again).
	Programs uint64
	// FastConds and DynamicConds count condition occurrences across all
	// compiled units that were hoisted into pre-resolved tests vs left
	// dynamic.
	FastConds    uint64
	DynamicConds uint64
	// Runs is the number of CheckAuthorization evaluations.
	Runs uint64
}

// compileCounters is the hot-path representation of CompileStats.
type compileCounters struct {
	programs atomic.Uint64
	fast     atomic.Uint64
	dynamic  atomic.Uint64
	runs     atomic.Uint64
}

// CompileStats returns the compiled-engine counters.
func (a *API) CompileStats() CompileStats {
	return CompileStats{
		Programs:     a.compiled.programs.Load(),
		FastConds:    a.compiled.fast.Load(),
		DynamicConds: a.compiled.dynamic.Load(),
		Runs:         a.compiled.runs.Load(),
	}
}

// patPair is one entry's interned (authority pattern, value pattern)
// ids, indexed by the entry's position in its EACL.
type patPair struct {
	auth  int32
	value int32
}

// compiledEACL is one EACL translated into decision form. The unit of
// compilation is the EACL, not the composition: a system policy shared
// by every object's composition is compiled (and held in memory) once.
type compiledEACL struct {
	source string
	regGen uint64

	entries []compiledEntry
	pairs   []patPair
	auth    globTrie
	value   globTrie
	nAuth   int
	nValue  int
	nMemo   int
}

type compiledEntry struct {
	entry *eacl.Entry
	pos   bool
	pre   []compiledCond
}

type compiledCond struct {
	cond eacl.Condition
	// fast is nil for dynamic conditions (evaluated per occurrence);
	// memo is the request-scoped memoization slot of fast outcomes.
	fast CompiledCond
	memo int32
}

// programTable caches compiled units under the API, keyed by EACL
// identity. Sources return stable *eacl.EACL values across calls
// (MemorySource snapshots, FileSource/DirSource parse caches), so the
// uncached GetObjectPolicyInfo path finds the same units without
// recompiling; a hot reload swaps in newly parsed EACLs, which compile
// afresh. Reads are lock-free (atomic copy-on-write map); compilation
// serializes on mu. Blowing the cap resets the table, which only costs
// recompilation — unstable sources that re-parse per call would
// otherwise grow it without bound.
type programTable struct {
	mu    sync.Mutex // writers only
	units atomic.Pointer[map[*eacl.EACL]*compiledEACL]
}

const maxCompiledEACLs = 4096

// invalidate drops every compiled unit (hot-reload hygiene rides on
// pointer identity instead, but API.InvalidateCache flushes here too).
func (pt *programTable) invalidate() {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.units.Store(nil)
}

// compiledFor returns the decision unit for e, compiling and caching it
// on first sight or after a registration changed the registry.
func (a *API) compiledFor(e *eacl.EACL) *compiledEACL {
	gen := a.reg.generation()
	if mp := a.progs.units.Load(); mp != nil {
		if u, ok := (*mp)[e]; ok && u.regGen == gen {
			return u
		}
	}
	pt := &a.progs
	pt.mu.Lock()
	defer pt.mu.Unlock()
	var old map[*eacl.EACL]*compiledEACL
	if mp := pt.units.Load(); mp != nil {
		old = *mp
	}
	if u, ok := old[e]; ok && u.regGen == gen {
		return u // raced with another compiler
	}
	if len(old) >= maxCompiledEACLs {
		old = nil
	}
	next := make(map[*eacl.EACL]*compiledEACL, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	u := a.compileEACL(e, gen)
	next[e] = u
	pt.units.Store(&next)
	return u
}

type memoKey struct {
	typ, auth, val string
}

// internPattern returns the id of pattern in t, inserting it on first
// sight.
func internPattern(t *globTrie, ids map[string]int32, pattern string) int32 {
	pattern = collapseStars(pattern)
	if id, ok := ids[pattern]; ok {
		return id
	}
	id := int32(len(ids))
	ids[pattern] = id
	t.insert(pattern, id)
	return id
}

// compileEACL translates one EACL. Compilation cannot fail: conditions
// that resist specialization stay dynamic.
func (a *API) compileEACL(e *eacl.EACL, regGen uint64) *compiledEACL {
	u := &compiledEACL{
		source:  e.Source,
		regGen:  regGen,
		entries: make([]compiledEntry, 0, len(e.Entries)),
		pairs:   make([]patPair, 0, len(e.Entries)),
	}
	authIDs := make(map[string]int32)
	valIDs := make(map[string]int32)
	memoIDs := make(map[memoKey]int32)
	for i := range e.Entries {
		entry := &e.Entries[i]
		u.pairs = append(u.pairs, patPair{
			auth:  internPattern(&u.auth, authIDs, entry.Right.DefAuth),
			value: internPattern(&u.value, valIDs, entry.Right.Value),
		})
		cent := compiledEntry{entry: entry, pos: entry.Right.Sign == eacl.Pos}
		for ci := range entry.Conditions {
			cond := entry.Conditions[ci]
			if cond.Block != eacl.BlockPre {
				continue
			}
			cc := compiledCond{cond: cond, memo: -1}
			if fast := a.compileCond(cond); fast != nil {
				cc.fast = fast
				mk := memoKey{cond.Type, cond.DefAuth, cond.Value}
				id, ok := memoIDs[mk]
				if !ok {
					id = int32(len(memoIDs))
					memoIDs[mk] = id
				}
				cc.memo = id
				a.compiled.fast.Add(1)
			} else {
				a.compiled.dynamic.Add(1)
			}
			cent.pre = append(cent.pre, cc)
		}
		u.entries = append(u.entries, cent)
	}
	u.nAuth = len(authIDs)
	u.nValue = len(valIDs)
	u.nMemo = len(memoIDs)
	a.compiled.programs.Add(1)
	return u
}

// constCond is a compiled condition with a fixed outcome.
type constCond struct {
	out Outcome
}

func (c constCond) EvalCompiled(*Request) Outcome { return c.out }

// compileCond specializes one pre-condition, or returns nil to keep it
// dynamic. The eligibility rules guarantee the hoisted test reproduces
// evaluateCondition exactly for trace-disabled requests:
//   - values carrying '@' resolve through the runtime value provider
//     per request — dynamic;
//   - an unregistered condition is evaluateCondition's constant
//     "no evaluator registered" MAYBE (a later registration bumps the
//     registry generation and recompiles);
//   - only evaluators registered through the supervision layer whose
//     inner evaluator opts in via CondCompiler compile; everything
//     else — custom evaluators, stateful built-ins, and every evaluator
//     behind a WithEvaluatorWrapper wrapper (the wrapper, not the
//     built-in, is what supervision holds) — stays dynamic.
//
// A hoisted test is a CPU-only function of the request and in-memory
// state, so it runs inline even under WithEvaluatorTimeout; the
// deadline guards the dynamic calls, which are the ones that can block.
func (a *API) compileCond(cond eacl.Condition) CompiledCond {
	if containsAt(cond.Value) {
		return nil
	}
	ev, ok := a.reg.lookup(cond.Type, cond.DefAuth)
	if !ok {
		return constCond{out: UnevaluatedOutcome("no evaluator registered")}
	}
	sup, ok := ev.(supervised)
	if !ok {
		return nil
	}
	comp, ok := sup.inner.(CondCompiler)
	if !ok {
		return nil
	}
	fast, ok := comp.CompileCond(cond)
	if !ok {
		return nil
	}
	return fast
}

func containsAt(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '@' {
			return true
		}
	}
	return false
}

// compiledScratch is the working set of one unit's scan, pooled inside
// evalState and reused from EACL to EACL: the right-match bitsets and
// the fast-cond memo table. Grown on demand, never shrunk, so steady
// state allocates nothing.
type compiledScratch struct {
	authBits  []uint64
	valBits   []uint64
	entryBits []uint64
	memoOut   []Outcome
	memoSet   []bool
}

func (cs *compiledScratch) prepare(u *compiledEACL) {
	cs.authBits = growBits(cs.authBits, u.nAuth)
	cs.valBits = growBits(cs.valBits, u.nValue)
	cs.entryBits = growBits(cs.entryBits, len(u.pairs))
	clearBits(cs.entryBits)
	if cap(cs.memoOut) < u.nMemo {
		cs.memoOut = make([]Outcome, u.nMemo)
		cs.memoSet = make([]bool, u.nMemo)
	}
	cs.memoOut = cs.memoOut[:u.nMemo]
	cs.memoSet = cs.memoSet[:u.nMemo]
	for i := range cs.memoSet {
		cs.memoSet[i] = false
	}
}

// release drops outcome references so the pool doesn't pin request
// strings across uses.
func (cs *compiledScratch) release() {
	for i := range cs.memoOut {
		cs.memoOut[i] = Outcome{}
	}
}

// matchRights walks each requested right through both tries and marks
// the entries whose right covers it, replacing a per-entry
// eacl.MatchRight loop.
func (cs *compiledScratch) matchRights(u *compiledEACL, rights []eacl.Right) {
	for _, r := range rights {
		clearBits(cs.authBits)
		clearBits(cs.valBits)
		u.auth.match(r.DefAuth, cs.authBits)
		u.value.match(r.Value, cs.valBits)
		for bit := range u.pairs {
			pr := &u.pairs[bit]
			if bitGet(cs.authBits, pr.auth) && bitGet(cs.valBits, pr.value) {
				cs.entryBits[bit>>6] |= 1 << (uint(bit) & 63)
			}
		}
	}
}

// evalFast runs a hoisted test with the supervision layer's panic
// recovery: a panicking dependency (threat provider, group store)
// degrades to the same FaultPanic outcome the supervised evaluator
// would produce. Faulted outcomes are not memoized so every occurrence
// surfaces its own fault, as evaluating it dynamically would.
func (a *API) evalFast(cs *compiledScratch, cc *compiledCond, req *Request) Outcome {
	if cs.memoSet[cc.memo] {
		return cs.memoOut[cc.memo]
	}
	out := a.callFast(cc.fast, req)
	if out.Fault == FaultNone {
		cs.memoOut[cc.memo] = out
		cs.memoSet[cc.memo] = true
	}
	return out
}

func (a *API) callFast(fast CompiledCond, req *Request) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = a.recoverPanic(r)
		}
	}()
	return fast.EvalCompiled(req)
}

// evaluatePolicyCompiled runs the scan over both levels, composes, and
// leaves the deciding entries of every applicable level in st.deciders
// (their request-result/mid/post blocks belong to the answer).
func (a *API) evaluatePolicyCompiled(ctx context.Context, p *Policy, req *Request, st *evalState) evalResult {
	sys := a.scanLevel(ctx, p.System, req, st)
	sysExists := len(p.System) > 0
	loc := evalResult{decision: Maybe}
	if !(p.Mode == eacl.ModeStop && sysExists) {
		loc = a.scanLevel(ctx, p.Local, req, st)
	}
	return composeLevels(p.Mode, sys, loc, sysExists)
}

// scanLevel scans the EACLs of one level, folding each result into a
// stack accumulator as it is produced — no intermediate per-level
// result slice.
func (a *API) scanLevel(ctx context.Context, eacls []*eacl.EACL, req *Request, st *evalState) evalResult {
	var acc levelAccum
	cs := &st.cs
	for _, e := range eacls {
		u := a.compiledFor(e)
		cs.prepare(u)
		cs.matchRights(u, req.Rights)
		r := a.evaluateCompiledEACL(ctx, u, req, cs)
		cs.release()
		acc.add(r)
		if r.applicable && r.entry != nil {
			st.deciders = append(st.deciders, decidingEntry{entry: r.entry, source: r.source})
		}
	}
	return acc.result()
}

// note records a scan step; callers invoke it for traced requests only.
func (r *evalResult) note(line int, text string) {
	r.trace = append(r.trace, TraceEvent{Source: r.source, EntryLine: line, Note: text})
}

// evaluateCompiledEACL scans the ordered entries of one EACL for the
// requested rights and returns the first firing entry's decision (see
// the package comment for the full semantics), with right matching
// answered by the precomputed entry bitset. Request-result conditions
// are NOT evaluated here: they run once the composed decision is known.
//
// A traced request evaluates every condition through its evaluator —
// hoisted tests are skipped so Detail strings are the evaluator's own —
// and records each step; TraceEvents are otherwise recorded only for
// faults, so the common Yes/No path performs no per-entry allocation.
func (a *API) evaluateCompiledEACL(ctx context.Context, u *compiledEACL, req *Request, cs *compiledScratch) evalResult {
	res := evalResult{source: u.source}
	for i := range u.entries {
		if !bitGet(cs.entryBits, int32(i)) {
			continue
		}
		entry := &u.entries[i]
		var (
			sawNo  bool
			maybes []eacl.Condition
		)
		for ci := range entry.pre {
			cc := &entry.pre[ci]
			var out Outcome
			if cc.fast != nil && !req.Trace {
				out = a.evalFast(cs, cc, req)
			} else {
				out = a.evaluateCondition(ctx, cc.cond, req)
			}
			if out.Fault != FaultNone {
				res.faults = append(res.faults, Fault{Cond: cc.cond, Kind: out.Fault, Reason: out.faultReason()})
			}
			// Faults are traced even when tracing is off: a degraded
			// evaluation must stay observable.
			if req.Trace || out.Fault != FaultNone {
				res.trace = append(res.trace, TraceEvent{
					Source: u.source, EntryLine: entry.entry.Line, Cond: cc.cond, Outcome: out,
				})
			}
			switch out.Result {
			case No:
				if out.classOrDefault() == ClassSelector || !entry.pos {
					// Entry inapplicable: scan continues.
					sawNo = true
				} else {
					// Failed requirement on a positive entry: final
					// deny, possibly with an authentication challenge.
					res.decision = No
					res.applicable = true
					res.entry = entry.entry
					res.challenge = out.Challenge
					if req.Trace {
						res.note(entry.entry.Line, fmt.Sprintf("requirement failed: %s", out.Detail))
					}
					return res
				}
			case Yes:
				// condition met; continue within the entry
			default:
				// Maybe, or a zero/invalid decision treated as unevaluated
				// for fail-safety.
				maybes = append(maybes, cc.cond)
			}
			if sawNo {
				break // conditions are ordered; a selector NO ends the entry
			}
		}
		if sawNo {
			if req.Trace {
				res.note(entry.entry.Line, "entry inapplicable")
			}
			continue
		}
		res.applicable = true
		res.entry = entry.entry
		switch {
		case len(maybes) > 0:
			res.decision = Maybe
			res.unevaluated = maybes
			if req.Trace {
				res.note(entry.entry.Line, fmt.Sprintf("entry uncertain: %d condition(s) unevaluated", len(maybes)))
			}
		case entry.pos:
			res.decision = Yes
			if req.Trace {
				res.note(entry.entry.Line, "entry fired: grant")
			}
		default:
			res.decision = No
			if req.Trace {
				res.note(entry.entry.Line, "entry fired: deny")
			}
		}
		return res
	}
	// No entry applied: uncertain.
	res.decision = Maybe
	return res
}
