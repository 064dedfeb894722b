// Package reason is a whole-policy reasoning engine for composed EACL
// policies — the "who can do what, when?" layer on top of the per-file
// static analysis (internal/eacl/analysis). It walks the composition,
// each EACL's first-match scan in turn, over regions of the request
// space cut from the policy's own text (domain.go): a string language
// per glob or "re:" list, an address block per CIDR, minutes of the
// week per time window, integer intervals per comparison, a bit per
// group, the tri-level threat scale. One witness request per region is
// modeled by gaa's executable specification (spec.go): SpecEntry runs
// each entry's pre conditions through the real evaluators, and
// SpecCheck's first-match scan, level fold, composition and
// request-result conjunction decide over those models. It answers
// reachability queries:
//
//	who-can(defauth, right[, threat])   — principals that obtain YES
//	reachable-without(cond-type)        — a YES needing no such condition
//	grant-differs()                     — worlds where the composed and
//	                                      system-only decisions diverge
//
// It is also the one definition of "this entry can never decide" the
// analyzer presents (DeadEntries, VetoedGrants, Bypasses, Unsatisfiable):
// an entry decides in some world, or its fate walk — the entry cut alone,
// and the pieces it decides scanned by its EACL — names what keeps it
// from deciding. Whether an entry can fire at all is asked of an engine,
// which walks the entry's one-entry policy on its own answers (Walk).
//
// Every positive answer carries a concrete synthesized request; during
// construction the engine replays every world through the compiled
// engine (CheckAuthorization) and fails loudly if it disagrees with the
// specification's verdict, so every world of every run is a differential
// check of the two. The regions cover every request but where a
// condition reads ambient state or a walk or search passes its budget,
// which the engine tracks (Truncated, Incomplete, inexact worlds); see
// DESIGN.md §5.2 for the full argument.
package reason

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/ids"
)

// Options configures an Engine.
type Options struct {
	// Values resolves '@name' runtime references during reasoning (the
	// -value flag). Unreferenced names are ignored; unresolved
	// references evaluate to MAYBE exactly as at run time.
	Values map[string]string
	// ExtraRights cut the domain's right axis further (the rights named
	// in who-can queries), so a query pattern reads whole cubes.
	ExtraRights []eacl.Right
	// SystemOnly additionally folds and replays the system-only
	// projection of every world, enabling grant-differs queries.
	SystemOnly bool
}

// Verdict is the specification's (and replay-confirmed) phase-1 answer
// of one world.
type Verdict = gaa.Verdict

// worldResult is one world's full record.
type worldResult struct {
	idx      int
	w        world
	composed Verdict
	sysOnly  Verdict // valid when Options.SystemOnly
	inexact  bool
	held     bool // a decider's pre-conditions all hold (emptyRegion reads it)
	// deciderYes holds the condition types that evaluated YES on some
	// deciding entry (reachable-without reads it).
	deciderYes map[string]bool
	// deciders are the (eacl, entry) pairs whose entries decided.
	deciders []entryRef
}

type entryRef struct {
	eacl  int32
	entry int32
	kind  gaa.EntryKind
}

// Engine is an analyzed composition: the domain, the per-world
// verdicts, and the entries that decide in no world.
type Engine struct {
	policy, sysPolicy *gaa.Policy  // the composition and its system-only projection
	eacls             []*eacl.EACL // composition order: system then local
	nsys              int

	dom     *domain
	env     *worldEnv
	worlds  []world
	walked  [][]int // per world, each EACL's deciding entry in the walk
	results []worldResult
	dead    []DeadEntry
	deadWhy string // why the fate walks fall short of the policy
	opts    Options
}

// New builds the engine: the walk of the composition, whose cubes'
// witnesses are the worlds, then per world the specification's scan and
// folds and the differential replay, and last the fate of each entry
// that decides in no world. A non-nil error means the specification and
// the compiled engine disagreed — a bug, never a policy property.
func New(system, local []*eacl.EACL, opts Options) (*Engine, error) {
	d := &domain{values: mapValues(opts.Values), read: map[[2]string]atoms{}, langs: map[string]*lang{}, found: map[string]found{}}
	return newEngine(system, local, opts, d, newWorldEnv(d.values))
}

// Walk is New for the one-file policy ec on e's answers and environment
// (API, vocabulary, groups, clock), with its own budget, shortfalls and
// ambient conditions. It writes e's answers: one call at a time.
func (e *Engine) Walk(ec *eacl.EACL) (*Engine, error) {
	return newEngine(nil, []*eacl.EACL{ec}, Options{Values: e.opts.Values}, e.dom, e.env)
}

// newEngine is New on the answers of domain shared and on env.
func newEngine(system, local []*eacl.EACL, opts Options, shared *domain, env *worldEnv) (*Engine, error) {
	e := &Engine{
		policy:    gaa.NewPolicy("reason", system, local),
		sysPolicy: gaa.NewPolicy("reason", system, nil),
		opts:      opts,
		nsys:      len(system),
		env:       env,
	}
	e.eacls = append(append([]*eacl.EACL{}, system...), local...)
	e.dom = buildDomain(e.eacls, shared)

	for _, k := range e.roots() {
		e.compose(0, k, nil)
	}

	ctx, env := context.Background(), e.env
	model := make([][]gaa.EntryModel, len(e.eacls)) // [eacl][entry], reused per world
	for i, ec := range e.eacls {
		model[i] = make([]gaa.EntryModel, len(ec.Entries))
	}
	entry := func(n, i int) *gaa.EntryModel {
		env.api.SpecEntry(ctx, e.eacls[n], i, env.req, &model[n][i])
		return &model[n][i]
	}
	e.results = make([]worldResult, 0, len(e.worlds))
	for wi := range e.worlds {
		env.enter(e.dom, &e.worlds[wi])
		r := worldResult{idx: wi, w: e.worlds[wi]}
		if err := e.foldWorld(ctx, env, entry, model, &r); err != nil {
			return nil, err
		}
		if err := e.replay(ctx, env, &r); err != nil {
			return nil, err
		}
		e.results = append(e.results, r)
	}
	e.fates()
	return e, nil
}

// roots are the cubes the walks start from: one per threat level, cut
// by each query right.
func (e *Engine) roots() []*cube {
	var roots []*cube
	for _, level := range []ids.Level{ids.Low, ids.Medium, ids.High} {
		roots = append(roots, e.dom.root(level))
	}
	for _, r := range e.opts.ExtraRights {
		var next []*cube
		for _, k := range roots {
			match, miss := e.dom.rightPieces(k, r)
			if match != nil {
				next = append(next, match)
			}
			next = append(next, miss...)
		}
		roots = next
	}
	return roots
}

// scan walks EACL n's first-match scan from entry i over cube k: each
// piece of k goes to decide with the entry deciding it and what that
// entry does there, or -1 where no entry applies. An entry that decides
// nowhere in k leaves k whole for the next one, unless a piece was
// dropped for want of an answer: then the pieces left go on.
func (e *Engine) scan(n, i int, k *cube, decide func(k *cube, d int, kind gaa.EntryKind)) {
	for ; i < len(e.eacls[n].Entries); i++ {
		shorts := e.dom.shorts
		pieces, kinds := e.cut(n, i, k)
		if e.dom.cubes > maxCubes {
			return
		}
		if !slices.ContainsFunc(kinds, decides) && e.dom.shorts == shorts {
			continue
		}
		for j, p := range pieces {
			if kinds[j] == gaa.EntryInapplicable {
				e.scan(n, i+1, p, decide)
			} else {
				decide(p, i, kinds[j])
			}
		}
		return
	}
	decide(k, -1, gaa.EntryInapplicable)
}

// decides reports whether an entry doing kind stops the scan.
func decides(kind gaa.EntryKind) bool { return kind != gaa.EntryInapplicable }

// cut returns the pieces of k on which entry i of EACL n reads one cell
// of its right and of each of its pre and request-result conditions,
// and what the entry does on each, read off its witness; nothing once
// the walk is past its budget.
func (e *Engine) cut(n, i int, k *cube) ([]*cube, []gaa.EntryKind) {
	en := &e.eacls[n].Entries[i]
	match, miss := e.dom.rightPieces(k, en.Right)
	if e.dom.spend(1 + len(miss)) {
		return nil, nil
	}
	var pieces []*cube
	var kinds []gaa.EntryKind
	if match != nil {
		pieces = []*cube{match}
		for _, c := range en.Conditions {
			if c.Block != eacl.BlockPre && c.Block != eacl.BlockRequestResult {
				continue
			}
			var next []*cube
			for _, p := range pieces {
				if cs := e.dom.cells(c, p); cs != nil {
					next = append(next, cs...)
				} else {
					next = append(next, p)
				}
			}
			if pieces = next; e.dom.spend(len(next)) {
				return nil, nil
			}
		}
		var m gaa.EntryModel
		for _, p := range pieces {
			w := e.dom.witness(p)
			e.env.enter(e.dom, &w)
			e.env.api.SpecEntry(context.Background(), e.eacls[n], i, e.env.req, &m)
			kinds = append(kinds, m.Kind)
		}
	}
	return append(pieces, miss...), append(kinds, make([]gaa.EntryKind, len(miss))...)
}

// fates gives each entry that decides in no world its cause. A local
// entry under a stop system is never scanned. Where the walk covers the
// policy, any other is cut alone from the roots, and the pieces it
// decides go through its EACL's scan from the first entry: the earlier
// entries deciding them shadow it, and where it decides none it is
// unsatisfiable. A walk that falls short of the policy leaves a claim of
// death unknown, never one of life: where the walk of an entry claimed
// dead falls short, only the stop causes stand.
func (e *Engine) fates() {
	decided := map[[2]int]bool{}
	for _, ds := range e.walked {
		for n, d := range ds {
			decided[[2]int{n, d}] = true
		}
	}
	complete := !e.dom.incomplete()
	for n, ec := range e.eacls {
		stop := n >= e.nsys && e.stopSystem()
		for i, en := range ec.Entries {
			d := DeadEntry{Source: ec.Source, Line: en.Line, Right: en.Right.String(), Index: i}
			switch {
			case stop:
				d.Cause = CauseStop
			case !complete || decided[[2]int{n, i}]:
				continue
			default:
				if d.Cause, d.ShadowedBy = e.fate(n, i); d.Cause != "" {
					e.deadWhy = cmp.Or(e.deadWhy, e.dom.why)
				}
				if e.dom.why = ""; d.Cause == "" {
					continue
				}
			}
			e.dead = append(e.dead, d)
		}
	}
	if e.deadWhy != "" {
		e.dead = slices.DeleteFunc(e.dead, func(d DeadEntry) bool { return d.Cause != CauseStop })
	}
}

// fate scans the pieces entry i of EACL n decides alone, and returns
// the entries deciding them first, ascending: its cause is shadowed, or
// unsatisfiable when there is no piece. It is "" when the scan reaches
// the entry itself. An earlier entry deciding MAYBE on a piece shadows
// it there and the piece's scan goes on past it: with the unevaluated
// condition resolved, the scan could pass that entry, so the entry is
// live if the scan after it reaches the entry.
func (e *Engine) fate(n, i int) (cause Cause, by []int) {
	cause = CauseUnsatisfiable
	live := false
	var decide func(k *cube, d int, kind gaa.EntryKind)
	decide = func(k *cube, d int, kind gaa.EntryKind) {
		if live = live || d < 0 || d >= i; live {
			return
		}
		if !slices.Contains(by, d) {
			by = append(by, d)
		}
		if kind == gaa.EntryMaybe {
			e.scan(n, d+1, k, decide)
		}
	}
	for _, k := range e.roots() {
		pieces, kinds := e.cut(n, i, k)
		for j, p := range pieces {
			if !decides(kinds[j]) {
				continue
			}
			cause = CauseShadowed
			e.scan(n, 0, p, decide)
		}
	}
	if live {
		return "", nil
	}
	slices.Sort(by)
	return cause, by
}

// compose walks the composition's scans in order from EACL n over cube
// k, which the EACLs before n decide by deciders; each cube left after
// the last one gives its witness as a world.
func (e *Engine) compose(n int, k *cube, deciders []int) {
	if n == len(e.eacls) || n >= e.nsys && e.stopSystem() {
		// A world costs a fold and a replay through every EACL.
		if e.dom.spend(len(e.eacls)) {
			return
		}
		for len(deciders) < len(e.eacls) {
			deciders = append(deciders, -1)
		}
		e.worlds = append(e.worlds, e.dom.witness(k))
		e.walked = append(e.walked, deciders)
		return
	}
	e.scan(n, 0, k, func(k *cube, d int, _ gaa.EntryKind) {
		e.compose(n+1, k, append(slices.Clip(deciders), d))
	})
}

// stopSystem reports whether a system policy declares stop, so local
// policies are never evaluated.
func (e *Engine) stopSystem() bool {
	return e.policy.Mode == eacl.ModeStop && e.nsys > 0
}

// foldWorld takes the composed and system-only verdicts of one world
// from the specification's scan, with entry modeling each entry the
// scan reaches into model, and records the world's deciders. Those are
// the walk's for the world's cube, or the cube is not what the walk took
// it for, an error like a failed replay.
func (e *Engine) foldWorld(ctx context.Context, env *worldEnv, entry func(n, i int) *gaa.EntryModel, model [][]gaa.EntryModel, r *worldResult) error {
	var sysOnly *Verdict
	if e.opts.SystemOnly {
		sysOnly = &r.sysOnly
	}
	ans, decided := env.api.SpecCheck(ctx, e.policy, env.req, entry, sysOnly)
	r.composed = verdict(&ans)
	if !slices.Equal(decided, e.walked[r.idx]) {
		return fmt.Errorf("reason: the walk and the specification disagree on world %s: entries %v decide the walk's cube, %v its witness",
			describeWorld(e.dom, &r.w), e.walked[r.idx], decided)
	}
	for n, d := range decided {
		if d < 0 {
			continue
		}
		m := &model[n][d]
		r.held = r.held || e.holds(m)
		r.deciders = append(r.deciders, entryRef{eacl: int32(n), entry: int32(d), kind: m.Kind})
		for j := range m.Evaluated {
			ev := &m.Evaluated[j]
			r.inexact = r.inexact || e.dom.ambient[ev.Cond.Type]
			if ev.Outcome.Result == gaa.Yes {
				if r.deciderYes == nil {
					r.deciderYes = map[string]bool{}
				}
				r.deciderYes[ev.Cond.Type] = true
			}
		}
	}
	return nil
}

// verdict is the decision-only part of an answer.
func verdict(ans *gaa.Answer) Verdict {
	return Verdict{Decision: ans.Decision, Applicable: ans.Applicable, Challenge: ans.Challenge}
}

// replay runs the synthesized request through the compiled engine and
// compares its answer against the specification's verdict.
func (e *Engine) replay(ctx context.Context, env *worldEnv, r *worldResult) error {
	check := func(p *gaa.Policy, want Verdict, label string) error {
		ans, err := env.api.CheckAuthorization(ctx, p, env.req)
		if err != nil {
			return fmt.Errorf("reason: replay %s: %v", label, err)
		}
		got := verdict(ans)
		if got != want && !r.inexact { // ambient state (file hashes) may differ between runs
			return fmt.Errorf("reason: %s disagrees with the specification on world %s: specification %+v, engine %+v",
				label, describeWorld(e.dom, &r.w), want, got)
		}
		return nil
	}
	if err := check(e.policy, r.composed, "engine"); err != nil {
		return err
	}
	if e.opts.SystemOnly {
		return check(e.sysPolicy, r.sysOnly, "engine (system-only)")
	}
	return nil
}

// Worlds returns the number of worlds modeled.
func (e *Engine) Worlds() int { return len(e.results) }

// Truncated reports whether the cubes are known not to cover the
// policy's behaviours — a condition reads state outside the request, or
// a walk or search passed its budget — in which case universal claims
// (proofs, dead entries, vetoed grants) are downgraded to "unknown";
// dead entries also where only their fate walks fall short (Incomplete).
func (e *Engine) Truncated() bool { return e.dom.incomplete() }

// Incomplete says how the cubes fall short of covering the policy, or
// the walks that decide the fates of entries deciding in no world fall
// short of it; "" when both cover it.
func (e *Engine) Incomplete() string {
	if why := cmp.Or(e.dom.why, e.deadWhy); why != "" {
		return "incomplete domain: " + why
	}
	return ""
}

// Cause says why a dead entry never decides.
type Cause string

const (
	// CauseStop: a local entry under a system policy declaring stop,
	// never evaluated at all.
	CauseStop Cause = "stop"
	// CauseShadowed: earlier entries of the same EACL decide every
	// request this entry would decide (DeadEntry.ShadowedBy).
	CauseShadowed Cause = "shadowed"
	// CauseUnsatisfiable: the entry alone decides no request.
	CauseUnsatisfiable Cause = "unsatisfiable"
)

// DeadEntry is an entry the prover found deciding in no world.
type DeadEntry struct {
	Source string `json:"source"`
	Line   int    `json:"line"`
	Right  string `json:"right"`
	Cause  Cause  `json:"cause"`
	// Index locates the entry in its EACL's Entries; ShadowedBy lists
	// the indices of the shadowing entries there, ascending.
	Index      int   `json:"-"`
	ShadowedBy []int `json:"-"`
}

// DeadEntries returns the entries that decide in no world, each with
// its cause. Local entries under stop are structural and always
// reported. The other causes are universal claims, kept sound by two
// suppressions:
//
//   - the domain is incomplete (Incomplete) — none reported;
//   - the scan past a shadowing entry that decides MAYBE where this
//     entry would decide reaches this entry (see fate).
func (e *Engine) DeadEntries() []DeadEntry { return e.dead }

// Entry locates one policy entry.
type Entry struct {
	Source string
	Line   int
	Right  eacl.Right
}

// GrantDenials is a local grant and the system denials a composition
// fact relates it to, in composition order.
type GrantDenials struct {
	Grant   Entry
	Denials []Entry
}

// VetoedGrants returns the local grants that fire in some world while in
// every world they fire the composed answer is NO and a system denial
// decides: under narrow such a grant never takes effect. Denials are the
// system entries that fired NO there. It is a universal claim: nil when
// the domain is incomplete, and an inexact world keeps a grant live.
func (e *Engine) VetoedGrants() []GrantDenials {
	if e.dom.incomplete() {
		return nil
	}
	vetoes := map[entryRef]map[entryRef]bool{} // nil once a grant fired unvetoed
	for i := range e.results {
		r := &e.results[i]
		grants, denials := e.firing(r)
		for _, g := range grants {
			set, seen := vetoes[g]
			if r.inexact || r.composed.Decision != gaa.No || len(denials) == 0 {
				set = nil
			} else if !seen {
				set = map[entryRef]bool{}
			}
			for _, dn := range denials {
				if set != nil {
					set[dn] = true
				}
			}
			vetoes[g] = set
		}
	}
	return e.grantDenials(vetoes)
}

// Bypasses returns the local grants that, in some exact world, fire YES
// while system denials fire NO and the composed answer is YES: under
// expand the grant overrides those mandatory denials. It is an
// existential claim, made whether or not the domain is complete.
func (e *Engine) Bypasses() []GrantDenials {
	bypassed := map[entryRef]map[entryRef]bool{}
	for i := range e.results {
		r := &e.results[i]
		if r.inexact || r.composed.Decision != gaa.Yes {
			continue
		}
		grants, denials := e.firing(r)
		for _, g := range grants {
			for _, dn := range denials {
				if bypassed[g] == nil {
					bypassed[g] = map[entryRef]bool{}
				}
				bypassed[g][dn] = true
			}
		}
	}
	return e.grantDenials(bypassed)
}

// firing returns the world's local grants that fired YES and system
// denials that fired NO.
func (e *Engine) firing(r *worldResult) (grants, denials []entryRef) {
	for _, d := range r.deciders {
		ref := entryRef{eacl: d.eacl, entry: d.entry}
		if local := int(d.eacl) >= e.nsys; local && d.kind == gaa.EntryFiresYes {
			grants = append(grants, ref)
		} else if !local && d.kind == gaa.EntryFiresNo {
			denials = append(denials, ref)
		}
	}
	return grants, denials
}

func (e *Engine) grantDenials(m map[entryRef]map[entryRef]bool) []GrantDenials {
	var out []GrantDenials
	for _, g := range sortedRefs(m) {
		if m[g] == nil {
			continue
		}
		gd := GrantDenials{Grant: e.entry(g)}
		for _, dn := range sortedRefs(m[g]) {
			gd.Denials = append(gd.Denials, e.entry(dn))
		}
		out = append(out, gd)
	}
	return out
}

func (e *Engine) entry(r entryRef) Entry {
	en := &e.eacls[r.eacl].Entries[r.entry]
	return Entry{Source: e.eacls[r.eacl].Source, Line: en.Line, Right: en.Right}
}

// sortedRefs returns the map's entries in composition order.
func sortedRefs[V any](m map[entryRef]V) []entryRef {
	out := make([]entryRef, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].eacl < out[j].eacl || out[i].eacl == out[j].eacl && out[i].entry < out[j].entry
	})
	return out
}

// AnonymousGrant is a composed YES obtained without authentication:
// the entry that fired the grant plus the concrete witness request.
type AnonymousGrant struct {
	Source  string
	Line    int
	Right   eacl.Right // the requested right granted, concrete
	Witness Witness
}

// AnonymousGrants returns one record per (granting entry, requested
// right) pair reachable by an unauthenticated client. Inexact worlds
// are excluded, as everywhere.
func (e *Engine) AnonymousGrants() []AnonymousGrant {
	type key struct {
		eacl, entry int32
		right       eacl.Right
	}
	seen := map[key]bool{}
	var out []AnonymousGrant
	for i := range e.results {
		r := &e.results[i]
		if r.w.user != "" || r.inexact || r.composed.Decision != gaa.Yes {
			continue
		}
		for _, d := range r.deciders {
			if d.kind != gaa.EntryFiresYes {
				continue
			}
			k := key{d.eacl, d.entry, r.w.right}
			if seen[k] {
				continue
			}
			seen[k] = true
			ec := e.eacls[d.eacl]
			out = append(out, AnonymousGrant{
				Source:  ec.Source,
				Line:    ec.Entries[d.entry].Line,
				Right:   r.w.right,
				Witness: e.witness(r, false),
			})
		}
	}
	return out
}

// describeWorld renders a world compactly for error messages.
func describeWorld(d *domain, w *world) string {
	user := w.user
	if user == "" {
		user = "<anonymous>"
	}
	groups := ""
	for gi, g := range d.groups {
		if w.member[gi] {
			if groups != "" {
				groups += ","
			}
			groups += g
		}
	}
	return fmt.Sprintf("{right=%s %s threat=%s user=%s groups=[%s] ip=%s uri=%q t=%s}",
		w.right.DefAuth, w.right.Value, w.threat, user, groups, w.ip, w.uri, w.at.Format("2006-01-02T15:04"))
}
