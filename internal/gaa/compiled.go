package gaa

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"gaaapi/internal/eacl"
)

// This file is the first-match decision engine: each EACL is compiled
// once, on first sight, into a decision unit — right globs interned
// into prefix tries, cheap selector conditions (threat level, time
// windows, CIDR membership, group membership, …) hoisted into
// pre-resolved tests evaluated once per request instead of once per
// entry — and the per-request scan walks the composed policy's units.
// Dynamic conditions ('@value' references, custom or wrapped
// evaluators, stateful built-ins, actions) go through evaluateCondition
// per occurrence, so supervision, deadlines, injected faults and
// adaptive values see every one of those calls. Every block compiles.
//
// It is the only production scan, and it only decides: it writes no
// trace of its own, traced request or not, beside a degraded
// evaluation's. spec.go states the same semantics entry by entry, as
// the specification, and is the one explainer (it writes every
// trace): for every request both must produce exactly the same answer
// (decision, applicability, challenge, unevaluated conditions, deciding
// entries, faults and their trace). compile_diff_test.go enforces that
// with a differential fuzz test and a golden sweep over the
// repository's policies.

// CompiledCond is a condition evaluation specialized at policy-compile
// time: parsing, pattern compilation and static lookups are done once,
// and EvalCompiled performs only the per-request test. Implementations
// must be pure per request — two calls with the same request must
// return the same verdict — because the engine memoizes it across
// entries of one request. The verdict must carry the result, class and
// challenge of the Outcome the evaluator they were compiled from would
// produce (Detail strings come from the evaluator, which the
// specification calls to trace). A test reads only the request's
// Rights, Params and Time.
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

// TriggerCompiler is implemented by actions whose value names the phase
// status they act on (on:success, on:failure, on:any): for a later
// block's condition, whether the action fires for a status, or nil to
// be called whatever the status. A phase counts an action that does
// not fire met (YES) without calling it.
type TriggerCompiler interface {
	CompileTrigger(cond eacl.Condition) (fires func(status Decision) bool)
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
	// later holds the request-result, mid and post blocks, nil when
	// the entry has none.
	later *[3][]compiledCond
}

// block returns the entry's later block b.
func (e *compiledEntry) block(b eacl.Block) []compiledCond {
	if e.later == nil {
		return nil
	}
	return e.later[b-eacl.BlockRequestResult]
}

type compiledCond struct {
	cond eacl.Condition
	ev   Evaluator // registered when the unit compiled; nil: none
	// fast is nil for dynamic conditions (evaluated per occurrence);
	// memo is the request-scoped memoization slot of fast verdicts in
	// the pre block.
	fast CompiledCond
	memo int32
	// fires is a later block's action trigger (TriggerCompiler).
	fires func(status Decision) bool
}

// skips reports whether cc is an action that cannot fire for status.
func (cc *compiledCond) skips(status Decision) bool {
	return cc.fires != nil && !cc.fires(status)
}

// programTable caches compiled units under the API, keyed by EACL
// identity. Sources return stable *eacl.EACL values across calls
// (MemorySource snapshots, DirSource's loaded tree), so every
// composition holding an EACL resolves the same unit without
// recompiling; a hot reload swaps in newly parsed EACLs, which compile
// afresh. Its one reader, unitsFor, resolves a composition's units once
// per registry generation, so a lookup is off the per-request path and
// takes mu. Blowing the cap resets the table, which only costs
// recompilation — unstable sources that re-parse per call would
// otherwise grow it without bound.
type programTable struct {
	mu    sync.Mutex
	units map[*eacl.EACL]*compiledEACL
}

const maxCompiledEACLs = 4096

// compiledFor returns the decision unit for e, compiling and caching it
// on first sight or after a registration changed the registry.
func (a *API) compiledFor(e *eacl.EACL) *compiledEACL {
	gen := a.reg.generation()
	pt := &a.progs
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if u, ok := pt.units[e]; ok && u.regGen == gen {
		return u
	}
	if pt.units == nil || len(pt.units) >= maxCompiledEACLs {
		pt.units = make(map[*eacl.EACL]*compiledEACL)
	}
	u := a.compileEACL(e, gen)
	pt.units[e] = u
	return u
}

// compiledUnits are a composition's units, System's then Local's, as
// one API's compiledFor resolved them at one registry generation.
type compiledUnits struct {
	api   *API
	gen   uint64
	units []*compiledEACL
}

// unitsFor returns c's units under a, resolving them once per registry
// generation instead of looking each one up on every scan.
func (c *composition) unitsFor(a *API) *compiledUnits {
	gen := a.reg.generation()
	if u := c.units.Load(); u != nil && u.api == a && u.gen == gen {
		return u
	}
	u := &compiledUnits{api: a, gen: gen, units: make([]*compiledEACL, 0, len(c.System)+len(c.Local))}
	for _, level := range [2][]*eacl.EACL{c.System, c.Local} {
		for _, e := range level {
			u.units = append(u.units, a.compiledFor(e))
		}
	}
	c.units.Store(u)
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
		for _, cond := range entry.Conditions {
			cc := a.compileCond(cond)
			if cc.fast != nil {
				a.compiled.fast.Add(1)
			} else {
				a.compiled.dynamic.Add(1)
			}
			if cond.Block != eacl.BlockPre {
				if cent.later == nil {
					cent.later = new([3][]compiledCond)
				}
				b := &cent.later[cond.Block-eacl.BlockRequestResult]
				*b = append(*b, cc)
				continue
			}
			if cc.fast != nil {
				mk := memoKey{cond.Type, cond.DefAuth, cond.Value}
				id, ok := memoIDs[mk]
				if !ok {
					id = int32(len(memoIDs))
					memoIDs[mk] = id
				}
				cc.memo = id
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

// compileCond resolves one condition's evaluator and hoists its test
// where it can. The eligibility rules guarantee the hoisted test
// reproduces evaluateCondition's verdict exactly, traced request or
// not:
//   - values carrying an '@name' reference (HasValueRef) resolve
//     through the runtime value provider per request — dynamic; any
//     other '@' ("alice@example.org") is literal text and hoists;
//   - an unregistered condition is evaluateCondition's constant
//     "no evaluator registered" MAYBE (a later registration bumps the
//     registry generation and recompiles);
//   - only evaluators registered through the supervision layer whose
//     inner evaluator opts in via CondCompiler compile; everything
//     else — custom evaluators, stateful built-ins, actions, and every
//     evaluator behind a WithEvaluatorWrapper wrapper (the wrapper, not
//     the built-in, is what supervision holds) — stays dynamic.
//
// A later block's action keeps its trigger under the same rules.
//
// A hoisted test is a CPU-only function of the request and in-memory
// state, so it runs inline even under WithEvaluatorTimeout; the
// deadline guards the dynamic calls, which are the ones that can block.
func (a *API) compileCond(cond eacl.Condition) compiledCond {
	cc := compiledCond{cond: cond, memo: -1}
	cc.ev, _ = a.reg.lookup(cond.Type, cond.DefAuth)
	if HasValueRef(cond.Value) {
		return cc
	}
	if cc.ev == nil {
		cc.fast = constCond{v: CondMaybe}
		return cc
	}
	sup, ok := cc.ev.(supervised)
	if !ok {
		return cc
	}
	if comp, ok := sup.inner.(CondCompiler); ok {
		if fast, ok := comp.CompileCond(cond); ok {
			cc.fast = fast
			return cc
		}
	}
	if tc, ok := sup.inner.(TriggerCompiler); ok && cond.Block != eacl.BlockPre {
		cc.fires = tc.CompileTrigger(cond)
	}
	return cc
}

// rightsMemoWords is a Policy's rights memo in bitset words: each
// unit's entry bitset, one after another, ⌈entries/64⌉ words each.
// Eight hold the benchmark's sprawl composition (201 + 4 entries, five
// words) with room to spare; a policy needing more never memoizes its
// bits.
const rightsMemoWords = 8

// memoLabelBytes is the room for the memo's label inside the policy,
// sized so that a policy-cache entry is 208 bytes: "apache GET " and a
// path of 88 bytes.
const memoLabelBytes = 99

// rightsMemo states.
const (
	memoEmpty    uint32 = iota
	memoWriting         // one caller is writing the label, or a scan its bits
	memoLabelled        // the label is readable; the bits are not
	memoReady           // label and bits are readable
)

// rightsMemo remembers which entries of a Policy cover the first single
// right the policy is checked for. For a cached policy that answer is
// fixed — the guard asks for "<METHOD> <path>" and the cache key is
// that path — so a request asking for the memo's right skips the trie
// walks and the bitset work; it still evaluates every condition. The
// bits depend only on the EACLs and the right (entry i of a unit is
// entry i of its EACL, whatever registry generation compiled it), so a
// recompile keeps them valid, and a reload, which composes new Policy
// values, starts new memos.
//
// The right is kept as its label, "<auth> <value>" (Request.Label),
// written into the memo's own bytes: a request's right is compared
// against them, and RightLabel hands them to the audit record, so the
// label costs no allocation of its own. A right whose label does not
// fit is not memoized.
//
// The first writer wins: RightLabel, or a scan that finds the memo
// empty, takes it to writing by CAS, writes the label (and the scan its
// bitsets) and publishes them by a store, before which no reader looks
// at them. A scan that finds the label of its own right published takes
// the memo from labelled to writing the same way. Nothing is
// overwritten afterwards. Every other request — more than one right, another
// right, a memo being written — walks the tries as if there were no
// memo. Neither writing nor reading allocates.
type rightsMemo struct {
	bits  [rightsMemoWords]uint64
	state atomic.Uint32
	n     uint8 // the label's length
	buf   [memoLabelBytes]byte
}

// label returns the memo's label, once published.
func (m *rightsMemo) label() string {
	return unsafe.String(&m.buf[0], m.n)
}

// setLabel writes parts, joined by spaces, into m's bytes; the caller
// owns the memo. It reports false, writing nothing, when they do not
// fit.
func (m *rightsMemo) setLabel(parts ...string) bool {
	n := len(parts) - 1
	for _, p := range parts {
		n += len(p)
	}
	if n > len(m.buf) {
		return false
	}
	m.n = uint8(n)
	b := m.buf[:0]
	for i, p := range parts {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, p...)
	}
	return true
}

// How a scan uses the rights memo.
const (
	memoWalk uint8 = iota // walk the tries
	memoRead              // take every unit's entry bits from the memo
	memoFill              // walk the tries and copy the bits in
)

// rightsCursor follows one scan through the memo, unit by unit.
type rightsCursor struct {
	m   *rightsMemo
	use uint8
	off int // words consumed by the units scanned so far
}

// cursor decides how a scan of p for req's rights uses p's memo.
func (p *Policy) cursor(req *Request) rightsCursor {
	m := &p.rights
	c := rightsCursor{m: m, use: memoWalk}
	if len(req.Rights) != 1 || p.words > rightsMemoWords {
		return c
	}
	r := &req.Rights[0]
	switch m.state.Load() {
	case memoReady:
		if joins(m.label(), r.DefAuth, r.Value) {
			c.use = memoRead
		}
	case memoLabelled:
		if joins(m.label(), r.DefAuth, r.Value) && m.state.CompareAndSwap(memoLabelled, memoWriting) {
			c.use = memoFill
		}
	case memoEmpty:
		if m.state.CompareAndSwap(memoEmpty, memoWriting) {
			if m.setLabel(r.DefAuth, r.Value) {
				c.use = memoFill
			} else {
				m.state.Store(memoEmpty)
			}
		}
	}
	return c
}

// RightLabel returns "<auth> <method> <path>", the label of auth's
// right "<method> <path>" (Request.Label), whose tail after len(auth)+1
// bytes is the right's value. It is p's memo's own label when the memo
// holds that right, or holds none yet and the label fits, so a caller
// asking for that right builds neither string; otherwise it is built.
// The memo's label is never overwritten, so it may be kept.
func (p *Policy) RightLabel(auth, method, path string) string {
	m := &p.rights
	switch m.state.Load() {
	case memoLabelled, memoReady:
		if l := m.label(); len(l) > len(auth) && l[:len(auth)] == auth && l[len(auth)] == ' ' && joins(l[len(auth)+1:], method, path) {
			return l
		}
	case memoEmpty:
		if m.state.CompareAndSwap(memoEmpty, memoWriting) {
			if m.setLabel(auth, method, path) {
				m.state.Store(memoLabelled)
				return m.label()
			}
			m.state.Store(memoEmpty)
		}
	}
	return auth + " " + method + " " + path
}

// joins reports whether s is a+" "+b, without building it.
func joins(s, a, b string) bool {
	return len(s) == len(a)+1+len(b) && s[:len(a)] == a && s[len(a)] == ' ' && s[len(a)+1:] == b
}

// entryBits returns the bitset of u's entries that cover the request's
// rights: read from the memo, or computed in cs (and copied in when
// filling).
func (c *rightsCursor) entryBits(cs *compiledScratch, u *compiledEACL, rights []eacl.Right) []uint64 {
	n := bitWords(len(u.entries))
	if c.use == memoRead {
		c.off += n
		return c.m.bits[c.off-n : c.off]
	}
	cs.matchRights(u, rights)
	if c.use == memoFill {
		c.off += copy(c.m.bits[c.off:], cs.entryBits)
	}
	return cs.entryBits
}

// done publishes a filled memo.
func (c *rightsCursor) done() {
	if c.use == memoFill {
		c.m.state.Store(memoReady)
	}
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

// prepare readies the fast-cond memo table for a scan of u.
func (cs *compiledScratch) prepare(u *compiledEACL) {
	cs.memo = append(cs.memo[:0], make([]CondVerdict, u.nMemo)...) // zeroed in place, no temporary
}

// matchRights walks each requested right through both tries and marks
// the entries whose right covers it in cs.entryBits, replacing a
// per-entry eacl.MatchRight loop: only the posting lists of the value
// patterns that matched are visited, and each visit is one
// authority-bit test.
func (cs *compiledScratch) matchRights(u *compiledEACL, rights []eacl.Right) {
	cs.authBits = growBits(cs.authBits, u.nAuth)
	cs.valBits = growBits(cs.valBits, len(u.posts))
	cs.entryBits = growBits(cs.entryBits, len(u.entries))
	clearBits(cs.entryBits)
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

// evalFast runs a hoisted test with the supervision layer's panic
// recovery: a panicking dependency (threat provider, group store)
// degrades to the same FaultPanic outcome the supervised evaluator
// would produce, recorded in res, and ok is false. The pre scan
// memoizes only a verdict that did not fault, so every occurrence
// surfaces its own fault, as evaluating it dynamically would.
func (a *API) evalFast(cc *compiledCond, req *Request, line int, res *evalResult) (v CondVerdict, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			res.fault(cc.cond, line, a.recoverPanic(r))
			v, ok = CondMaybe, false
		}
	}()
	return cc.fast.EvalCompiled(req), true
}

// evalDynamic evaluates a dynamic condition through its evaluator,
// recording a fault in res. Beside the verdict it hands back the
// challenge, which only a final deny reads.
func (a *API) evalDynamic(ctx context.Context, cc *compiledCond, req *Request, line int, res *evalResult) (v CondVerdict, challenge string) {
	out := a.evaluateCondition(ctx, cc.ev, cc.cond, req)
	if out.Fault != FaultNone {
		res.fault(cc.cond, line, out)
	}
	switch out.Result {
	case Yes, No, Maybe:
		v = CondVerdict(out.Result)
	} // anything else stays 0, which the scan reads as MAYBE
	if out.classOrDefault() != ClassSelector {
		v |= CondRequirement
	}
	return v, out.Challenge
}

// runBlock runs a deciding entry's request-result, mid or post block
// on the phase's request r and returns the conjunction of its outcomes
// (zero for an empty block): every condition runs. As in the pre scan,
// a hoisted test runs inline (unmemoized) and any other condition calls
// its evaluator, recording a fault in res; an action that cannot fire
// for status is met uncalled. A stale block, compiled before the
// registry last changed, compiles afresh as it runs.
func (a *API) runBlock(ctx context.Context, blk []compiledCond, stale bool, r *Request, status Decision, line int, res *evalResult) Decision {
	var dec Decision
	for i := range blk {
		cc := &blk[i]
		if stale {
			fresh := a.compileCond(cc.cond)
			cc = &fresh
		}
		v := CondYes // an action that cannot fire
		switch {
		case cc.fast == nil && !cc.skips(status):
			v, _ = a.evalDynamic(ctx, cc, r, line, res)
		case cc.fast != nil:
			v, _ = a.evalFast(cc, r, line, res)
		}
		d := v.Result()
		if d == 0 {
			d = Maybe // an invalid verdict, as the scan reads it
		}
		dec = Conjoin(dec, d)
	}
	return dec
}

// fault records a degraded evaluation: the Fault and its TraceEvent,
// traced request or not, so that a degraded evaluation stays
// observable.
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
	cu := p.unitsFor(a)
	st.gen = cu.gen
	rc := p.cursor(req)
	a.scanLevel(ctx, cu.units[:len(p.System)], req, st, &rc, &sys)
	sysExists := len(p.System) > 0
	loc.Decision = Maybe // a level not scanned is uncertain
	if !(p.Mode == eacl.ModeStop && sysExists) {
		a.scanLevel(ctx, cu.units[len(p.System):], req, st, &rc, &loc)
	}
	rc.done()
	composeLevels(p.Mode, &sys, &loc, sysExists, out)
}

// scanLevel scans the units of one level into the zero out, folding
// each result in as it is produced — no intermediate per-level result
// slice, and one evalResult reused for every EACL.
func (a *API) scanLevel(ctx context.Context, units []*compiledEACL, req *Request, st *evalState, rc *rightsCursor, out *evalResult) {
	var (
		fold levelFold
		r    evalResult
	)
	cs := &st.cs
	for _, u := range units {
		cs.prepare(u)
		decider := a.evaluateCompiledEACL(ctx, u, req, cs, rc.entryBits(cs, u, req.Rights), &r)
		out.absorb(&r)
		fold.add(r.Verdict)
		if r.Applicable && decider != nil {
			st.deciders = append(st.deciders, decidingEntry{decider, r.source})
		}
	}
	out.Verdict = fold.result()
}

// evaluateCompiledEACL scans the ordered entries of one EACL for the
// requested rights, leaves the first firing entry's decision in res and
// returns that entry (see the package comment for the full semantics),
// with right matching answered by the entry bitset entryBits: the scan visits its set bits,
// lowest first, which is entry order. Request-result conditions are NOT
// evaluated here: they run once the composed decision is known.
// TraceEvents are recorded only for faults, so the common Yes/No path
// performs no per-entry allocation.
func (a *API) evaluateCompiledEACL(ctx context.Context, u *compiledEACL, req *Request, cs *compiledScratch, entryBits []uint64, res *evalResult) *compiledEntry {
	*res = evalResult{source: u.source, Verdict: Verdict{Decision: Maybe}} // uncertain unless an entry applies
	for w, word := range entryBits {
	entries:
		for ; word != 0; word &= word - 1 {
			entry := &u.entries[w<<6|bits.TrailingZeros64(word)]
			line := entry.entry.Line
			var maybes []eacl.Condition
			for ci := range entry.pre {
				cc := &entry.pre[ci]
				var (
					v         CondVerdict
					challenge string
				)
				hoisted := cc.fast != nil
				if !hoisted {
					v, challenge = a.evalDynamic(ctx, cc, req, line, res)
				} else if v = cs.memo[cc.memo]; v == 0 {
					var ok bool
					if v, ok = a.evalFast(cc, req, line, res); ok {
						cs.memo[cc.memo] = v
					}
				}
				switch v.Result() {
				case No:
					if v&CondRequirement == 0 || !entry.pos {
						// Entry inapplicable — conditions are ordered, a
						// selector NO ends the entry — and the scan continues.
						continue entries
					}
					// Failed requirement on a positive entry: final deny,
					// possibly with an authentication challenge.
					if hoisted && v&CondChallenge != 0 {
						challenge = cc.fast.Challenge()
					}
					res.Verdict = Verdict{Decision: No, Applicable: true, Challenge: challenge}
					return entry
				case Yes:
					// condition met; continue within the entry
				default:
					// Maybe, or a zero/invalid decision treated as unevaluated
					// for fail-safety.
					maybes = append(maybes, cc.cond)
				}
			}
			res.Applicable = true
			switch {
			case len(maybes) > 0:
				res.unevaluated = maybes
			case entry.pos:
				res.Decision = Yes
			default:
				res.Decision = No
			}
			return entry
		}
	}
	return nil
}
