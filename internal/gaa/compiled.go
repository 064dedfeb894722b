package gaa

import (
	"context"
	"fmt"
	"math/bits"
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
// return the same verdict — because the engine memoizes it across
// entries of one request. The verdict must carry the result, class and
// challenge of the Outcome the evaluator they were compiled from would
// produce (a traced request evaluates every condition through its
// evaluator instead, which is where Detail strings come from).
type CompiledCond interface {
	EvalCompiled(req *Request) CondVerdict
	// Challenge is the condition's compile-time challenge, read only
	// when a verdict carrying CondChallenge denies the request.
	Challenge() string
}

// NoChallenge is embedded by compiled conditions that never challenge.
type NoChallenge struct{}

// Challenge implements CompiledCond.
func (NoChallenge) Challenge() string { return "" }

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

// compiledEACL is one EACL translated into decision form. The unit of
// compilation is the EACL, not the composition: a system policy shared
// by every object's composition is compiled (and held in memory) once.
type compiledEACL struct {
	source string
	regGen uint64

	entries []compiledEntry
	// posts is the posting list of each interned value pattern: the
	// ascending indexes of the entries that carry it. A request pays for
	// the patterns its rights matched, not for every entry configured.
	posts [][]int32
	auth  globTrie
	value globTrie
	nAuth int
	nMemo int
}

type compiledEntry struct {
	entry *eacl.Entry
	pos   bool
	auth  int32 // interned authority pattern of the entry's right
	pre   []compiledCond
}

type compiledCond struct {
	cond eacl.Condition
	// fast is nil for dynamic conditions (evaluated per occurrence);
	// memo is the request-scoped memoization slot of fast verdicts.
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
	}
	authIDs := make(map[string]int32)
	valIDs := make(map[string]int32)
	memoIDs := make(map[memoKey]int32)
	for i := range e.Entries {
		entry := &e.Entries[i]
		val := internPattern(&u.value, valIDs, entry.Right.Value)
		if int(val) == len(u.posts) {
			u.posts = append(u.posts, nil)
		}
		u.posts[val] = append(u.posts[val], int32(i))
		cent := compiledEntry{
			entry: entry,
			pos:   entry.Right.Sign == eacl.Pos,
			auth:  internPattern(&u.auth, authIDs, entry.Right.DefAuth),
		}
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
	u.nMemo = len(memoIDs)
	a.compiled.programs.Add(1)
	return u
}

// constCond is a compiled condition with a fixed verdict.
type constCond struct {
	NoChallenge
	v CondVerdict
}

func (c constCond) EvalCompiled(*Request) CondVerdict { return c.v }

// compileCond specializes one pre-condition, or returns nil to keep it
// dynamic. The eligibility rules guarantee the hoisted test reproduces
// evaluateCondition exactly for trace-disabled requests:
//   - values carrying an '@name' reference (HasValueRef) resolve
//     through the runtime value provider per request — dynamic; any
//     other '@' ("alice@example.org") is literal text and hoists;
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
	if HasValueRef(cond.Value) {
		return nil
	}
	ev, ok := a.reg.lookup(cond.Type, cond.DefAuth)
	if !ok {
		return constCond{v: CondMaybe}
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

// compiledScratch is the working set of one unit's scan, pooled inside
// evalState and reused from EACL to EACL: the right-match bitsets and
// the fast-cond memo table (0 = not evaluated yet). Grown on demand,
// never shrunk, so steady state allocates nothing; pointer-free, so the
// pool pins nothing of the request.
type compiledScratch struct {
	authBits  []uint64
	valBits   []uint64
	entryBits []uint64
	memo      []CondVerdict
}

func (cs *compiledScratch) prepare(u *compiledEACL) {
	cs.authBits = growBits(cs.authBits, u.nAuth)
	cs.valBits = growBits(cs.valBits, len(u.posts))
	cs.entryBits = growBits(cs.entryBits, len(u.entries))
	clearBits(cs.entryBits)
	cs.memo = append(cs.memo[:0], make([]CondVerdict, u.nMemo)...) // zeroed in place, no temporary
}

// matchRights walks each requested right through both tries and marks
// the entries whose right covers it, replacing a per-entry
// eacl.MatchRight loop: only the posting lists of the value patterns
// that matched are visited, and each visit is one authority-bit test.
func (cs *compiledScratch) matchRights(u *compiledEACL, rights []eacl.Right) {
	for _, r := range rights {
		clearBits(cs.authBits)
		clearBits(cs.valBits)
		u.auth.match(r.DefAuth, cs.authBits)
		u.value.match(r.Value, cs.valBits)
		for w, word := range cs.valBits {
			for ; word != 0; word &= word - 1 {
				for _, i := range u.posts[w<<6|bits.TrailingZeros64(word)] {
					if bitGet(cs.authBits, u.entries[i].auth) {
						cs.entryBits[i>>6] |= 1 << (uint(i) & 63)
					}
				}
			}
		}
	}
}

// evalFast runs a hoisted test and memoizes its verdict, with the
// supervision layer's panic recovery: a panicking dependency (threat
// provider, group store) degrades to the same FaultPanic outcome the
// supervised evaluator would produce, recorded in res. A faulted call
// is not memoized so every occurrence surfaces its own fault, as
// evaluating it dynamically would.
func (a *API) evalFast(cs *compiledScratch, cc *compiledCond, req *Request, line int, res *evalResult) (v CondVerdict) {
	defer func() {
		if r := recover(); r != nil {
			res.fault(cc.cond, line, a.recoverPanic(r))
			v = CondMaybe
		}
	}()
	v = cc.fast.EvalCompiled(req)
	cs.memo[cc.memo] = v
	return v
}

// evalDynamic evaluates cond through its evaluator — a dynamic
// condition, or any condition of a traced request — recording faults
// and trace in res. Beside the verdict it hands back the two strings
// only a final deny reads.
func (a *API) evalDynamic(ctx context.Context, cond eacl.Condition, req *Request, line int, res *evalResult) (v CondVerdict, challenge, detail string) {
	out := a.evaluateCondition(ctx, cond, req)
	// Faults are traced even when tracing is off: a degraded evaluation
	// must stay observable.
	if out.Fault != FaultNone {
		res.fault(cond, line, out)
	} else if req.Trace {
		res.trace = append(res.trace, TraceEvent{Source: res.source, EntryLine: line, Cond: cond, Outcome: out})
	}
	switch out.Result {
	case Yes, No, Maybe:
		v = CondVerdict(out.Result)
	} // anything else stays 0, which the scan reads as MAYBE
	if out.classOrDefault() != ClassSelector {
		v |= CondRequirement
	}
	return v, out.Challenge, out.Detail
}

// fault records a degraded evaluation: the Fault and its TraceEvent.
func (r *evalResult) fault(cond eacl.Condition, line int, out Outcome) {
	r.faults = append(r.faults, Fault{Cond: cond, Kind: out.Fault, Reason: out.faultReason()})
	r.trace = append(r.trace, TraceEvent{Source: r.source, EntryLine: line, Cond: cond, Outcome: out})
}

// evaluatePolicyCompiled runs the scan over both levels and composes
// them into out, leaving the deciding entries of every applicable level
// in st.deciders (their request-result/mid/post blocks belong to the
// answer).
func (a *API) evaluatePolicyCompiled(ctx context.Context, p *Policy, req *Request, st *evalState, out *evalResult) {
	var sys, loc evalResult
	a.scanLevel(ctx, p.System, req, st, &sys)
	sysExists := len(p.System) > 0
	loc.Decision = Maybe // a level not scanned is uncertain
	if !(p.Mode == eacl.ModeStop && sysExists) {
		a.scanLevel(ctx, p.Local, req, st, &loc)
	}
	composeLevels(p.Mode, &sys, &loc, sysExists, out)
}

// scanLevel scans the EACLs of one level into the zero out, folding
// each result in as it is produced — no intermediate per-level result
// slice, and one evalResult reused for every EACL.
func (a *API) scanLevel(ctx context.Context, eacls []*eacl.EACL, req *Request, st *evalState, out *evalResult) {
	var (
		fold LevelFold
		r    evalResult
	)
	cs := &st.cs
	for _, e := range eacls {
		u := a.compiledFor(e)
		cs.prepare(u)
		cs.matchRights(u, req.Rights)
		a.evaluateCompiledEACL(ctx, u, req, cs, &r)
		out.absorb(&r)
		fold.Add(r.Verdict)
		if r.Applicable && r.entry != nil {
			st.deciders = append(st.deciders, decidingEntry{entry: r.entry, source: r.source})
		}
	}
	out.Verdict = fold.Result()
}

// note records a scan step; callers invoke it for traced requests only.
func (r *evalResult) note(line int, text string) {
	r.trace = append(r.trace, TraceEvent{Source: r.source, EntryLine: line, Note: text})
}

// evaluateCompiledEACL scans the ordered entries of one EACL for the
// requested rights and leaves the first firing entry's decision in res
// (see the package comment for the full semantics), with right matching
// answered by the precomputed entry bitset: the scan visits its set
// bits, lowest first, which is entry order. Request-result conditions
// are NOT evaluated here: they run once the composed decision is known.
//
// A traced request evaluates every condition through its evaluator —
// hoisted tests are skipped so Detail strings are the evaluator's own —
// and records each step; TraceEvents are otherwise recorded only for
// faults, so the common Yes/No path performs no per-entry allocation.
func (a *API) evaluateCompiledEACL(ctx context.Context, u *compiledEACL, req *Request, cs *compiledScratch, res *evalResult) {
	*res = evalResult{source: u.source, Verdict: Verdict{Decision: Maybe}} // uncertain unless an entry applies
	for w, word := range cs.entryBits {
	entries:
		for ; word != 0; word &= word - 1 {
			entry := &u.entries[w<<6|bits.TrailingZeros64(word)]
			line := entry.entry.Line
			var maybes []eacl.Condition
			for ci := range entry.pre {
				cc := &entry.pre[ci]
				var (
					v                 CondVerdict
					challenge, detail string
				)
				hoisted := cc.fast != nil && !req.Trace
				if !hoisted {
					v, challenge, detail = a.evalDynamic(ctx, cc.cond, req, line, res)
				} else if v = cs.memo[cc.memo]; v == 0 {
					v = a.evalFast(cs, cc, req, line, res)
				}
				switch v.Result() {
				case No:
					if v&CondRequirement == 0 || !entry.pos {
						// Entry inapplicable — conditions are ordered, a
						// selector NO ends the entry — and the scan continues.
						if req.Trace {
							res.note(line, "entry inapplicable")
						}
						continue entries
					}
					// Failed requirement on a positive entry: final deny,
					// possibly with an authentication challenge.
					if hoisted && v&CondChallenge != 0 {
						challenge = cc.fast.Challenge()
					}
					res.Verdict = Verdict{Decision: No, Applicable: true, Challenge: challenge}
					res.entry = entry.entry
					if req.Trace {
						res.note(line, "requirement failed: "+detail)
					}
					return
				case Yes:
					// condition met; continue within the entry
				default:
					// Maybe, or a zero/invalid decision treated as unevaluated
					// for fail-safety.
					maybes = append(maybes, cc.cond)
				}
			}
			res.Applicable = true
			res.entry = entry.entry
			switch {
			case len(maybes) > 0:
				res.unevaluated = maybes
				if req.Trace {
					res.note(line, fmt.Sprintf("entry uncertain: %d condition(s) unevaluated", len(maybes)))
				}
			case entry.pos:
				res.Decision = Yes
				if req.Trace {
					res.note(line, "entry fired: grant")
				}
			default:
				res.Decision = No
				if req.Trace {
					res.note(line, "entry fired: deny")
				}
			}
			return
		}
	}
}
