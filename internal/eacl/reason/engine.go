// Package reason is a whole-policy reasoning engine for composed EACL
// policies — the "who can do what, when?" layer on top of the per-file
// static analysis (internal/eacl/analysis). It evaluates a composed
// policy over a finite abstract domain built from the policy's own text
// (glob witnesses, CIDR interior points, time-window boundaries,
// comparison bounds, the tri-level threat scale and
// authenticated/anonymous principals). Every world is modeled by gaa's
// executable specification (spec.go): SpecEntry runs each entry's pre
// conditions through the real evaluators, and SpecCheck's first-match
// scan, level fold, composition and request-result conjunction decide
// over those models. It answers reachability queries:
//
//	who-can(defauth, right[, threat])   — principals that obtain YES
//	reachable-without(cond-type)        — a YES needing no such condition
//	grant-differs()                     — worlds where the composed and
//	                                      system-only decisions diverge
//
// It is also the one definition of "this entry can never decide" the
// analyzer presents (DeadEntries, VetoedGrants, Bypasses).
//
// Every positive answer carries a concrete synthesized request; during
// construction the engine replays every world through the compiled
// engine (CheckAuthorization) and fails loudly if it disagrees with the
// specification's verdict, so every world of every run is a differential
// check of the two. Soundness reduces to domain coverage, which the engine
// tracks (Truncated, inexact worlds); see DESIGN.md §5.2 for the full
// argument and known incompleteness.
package reason

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// Options configures an Engine.
type Options struct {
	// Values resolves '@name' runtime references during reasoning (the
	// -value flag). Unreferenced names are ignored; unresolved
	// references evaluate to MAYBE exactly as at run time.
	Values map[string]string
	// ExtraRights adds requested-right candidates to the domain (the
	// rights named in who-can queries).
	ExtraRights []eacl.Right
	// MaxWorlds caps the world grid; 0 means DefaultMaxWorlds.
	MaxWorlds int
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
	// deciderYes holds the condition types that evaluated YES on some
	// deciding entry (reachable-without reads it).
	deciderYes map[string]bool
	// deciders are the (eacl, entry) pairs whose entries decided.
	deciders []entryRef
	// kinds are what every entry of the composition, in order, would
	// do in this world if the scan reached it.
	kinds []gaa.EntryKind
}

type entryRef struct {
	eacl  int32
	entry int32
	kind  gaa.EntryKind
}

// entryStat aggregates per-entry reachability over all worlds.
type entryStat struct {
	decided, fired bool // fired: decided with every pre-condition YES
	// shadowers are the earlier entries of the same EACL that decided a
	// world in which this entry would have; shadowMaybe records that one
	// of them decided MAYBE there.
	shadowers   []int32
	shadowMaybe bool
}

// Engine is an analyzed composition: the domain, the per-world
// verdicts, and per-entry reachability statistics.
type Engine struct {
	policy, sysPolicy *gaa.Policy  // the composition and its system-only projection
	eacls             []*eacl.EACL // composition order: system then local
	nsys              int

	dom     *domain
	worlds  []world
	results []worldResult
	stats   [][]entryStat // [eaclIdx][entryIdx]
	opts    Options
}

// New builds the engine: domain extraction, then per world the entry
// models, the specification's scan and folds over them, and the
// differential replay. A non-nil error means the specification and the
// compiled engine disagreed — a bug, never a policy property.
func New(system, local []*eacl.EACL, opts Options) (*Engine, error) {
	return build(system, local, opts, false)
}

// build is New; own builds the grid from one entry's own conditions
// (see Unsatisfiable).
func build(system, local []*eacl.EACL, opts Options, own bool) (*Engine, error) {
	e := &Engine{
		policy:    gaa.NewPolicy("reason", system, local),
		sysPolicy: gaa.NewPolicy("reason", system, nil),
		opts:      opts,
		nsys:      len(system),
	}
	e.eacls = append(append([]*eacl.EACL{}, system...), local...)

	max := opts.MaxWorlds
	if max <= 0 {
		max = DefaultMaxWorlds
	}
	e.dom = buildDomain(e.eacls, opts, max, own)
	e.worlds = e.dom.worlds(max)

	e.stats = make([][]entryStat, len(e.eacls))
	for i, ec := range e.eacls {
		e.stats[i] = make([]entryStat, len(ec.Entries))
	}

	ctx := context.Background()
	env := newWorldEnv(e.dom.values)
	model := make([][]gaa.EntryModel, len(e.eacls)) // [eacl][entry], reused per world
	nentries := 0
	for i, ec := range e.eacls {
		model[i] = make([]gaa.EntryModel, len(ec.Entries))
		nentries += len(ec.Entries)
	}
	kinds := make([]gaa.EntryKind, len(e.worlds)*nentries)
	e.results = make([]worldResult, 0, len(e.worlds))
	for wi := range e.worlds {
		env.enter(e.dom, &e.worlds[wi])
		r := worldResult{idx: wi, w: e.worlds[wi], kinds: kinds[wi*nentries : (wi+1)*nentries]}
		e.models(ctx, env.api, env.req, model, r.kinds)
		e.foldWorld(ctx, env, model, &r)
		if err := e.replay(ctx, env, &r); err != nil {
			return nil, err
		}
		e.results = append(e.results, r)
	}
	return e, nil
}

// models writes into model what every entry of the composition would do
// for req if the scan reached it, and the kinds, flattened, into kinds.
func (e *Engine) models(ctx context.Context, api *gaa.API, req *gaa.Request, model [][]gaa.EntryModel, kinds []gaa.EntryKind) {
	k := 0
	for n, ec := range e.eacls {
		for i := range ec.Entries {
			api.SpecEntry(ctx, ec, i, req, &model[n][i])
			kinds[k] = model[n][i].Kind
			k++
		}
	}
}

// stopSystem reports whether a system policy declares stop, so local
// policies are never evaluated.
func (e *Engine) stopSystem() bool {
	return e.policy.Mode == eacl.ModeStop && e.nsys > 0
}

// foldWorld takes the composed and system-only verdicts of one world
// from the specification's scan over its entry models, and records,
// per entry, which earlier entries decided where it would have.
func (e *Engine) foldWorld(ctx context.Context, env *worldEnv, model [][]gaa.EntryModel, r *worldResult) {
	entry := func(n, i int) *gaa.EntryModel { return &model[n][i] }
	var sysOnly *Verdict
	if e.opts.SystemOnly {
		sysOnly = &r.sysOnly
	}
	ans, decided := env.api.SpecCheck(ctx, e.policy, env.req, entry, sysOnly)
	r.composed = verdict(&ans)
	for n, d := range decided {
		if d < 0 {
			continue
		}
		m := &model[n][d]
		r.deciders = append(r.deciders, entryRef{eacl: int32(n), entry: int32(d), kind: m.Kind})
		st := &e.stats[n][d]
		st.decided, st.fired = true, st.fired || m.Kind == gaa.EntryFiresYes || m.Kind == gaa.EntryFiresNo
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
		for i := d + 1; i < len(model[n]); i++ {
			if st := &e.stats[n][i]; model[n][i].Kind != gaa.EntryInapplicable {
				st.shadowMaybe = st.shadowMaybe || m.Kind == gaa.EntryMaybe
				if !slices.Contains(st.shadowers, int32(d)) {
					st.shadowers = append(st.shadowers, int32(d))
				}
			}
		}
	}
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

// Truncated reports whether the grid is known not to cover the policy
// — a dimension or world cap was hit, or no clean URI dodging every
// regex list could be found — in which case universal claims (proofs,
// dead entries, vetoed grants) are downgraded to "unknown".
func (e *Engine) Truncated() bool { return e.dom.incomplete() }

// Incomplete says how the grid falls short of covering the policy, ""
// when it covers it.
func (e *Engine) Incomplete() string {
	if !e.dom.incomplete() {
		return ""
	}
	return "incomplete domain: " + e.dom.why
}

// Fired reports whether entry i of the composition's EACL n fired, all
// its pre-conditions YES, in some world: a request that satisfies it.
func (e *Engine) Fired(n, i int) bool { return e.stats[n][i].fired }

// Cause says why a dead entry never decides.
type Cause string

const (
	// CauseStop: a local entry under a system policy declaring stop,
	// never evaluated at all.
	CauseStop Cause = "stop"
	// CauseShadowed: earlier entries of the same EACL decide every world
	// in which this entry would decide (DeadEntry.ShadowedBy).
	CauseShadowed Cause = "shadowed"
	// CauseUnsatisfiable: the entry's own right and guard hold together
	// in no world of the grid.
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
// reported. The other causes are universal claims over the grid, kept
// sound by these suppressions:
//
//   - the domain is incomplete (Truncated) — none reported;
//   - a shadowing entry decided MAYBE where this entry would have
//     decided (with the unevaluated condition resolved, the scan could
//     continue past it and reach this entry);
//   - the entry's guard carries an "re:" expression (witnesses for
//     regular expressions are not synthesized) and it is unsatisfiable
//     in the grid, or a shadowing entry reads the request line too;
//   - a shadowing entry's guard carries an "re:" expression.
func (e *Engine) DeadEntries() []DeadEntry {
	var out []DeadEntry
	for ei, ec := range e.eacls {
		stop := ei >= e.nsys && e.stopSystem()
		if !stop && e.dom.incomplete() {
			continue
		}
		for i := range ec.Entries {
			en := &ec.Entries[i]
			st := &e.stats[ei][i]
			d := DeadEntry{Source: ec.Source, Line: en.Line, Right: en.Right.String(), Index: i}
			switch {
			case stop:
				d.Cause = CauseStop
			case st.decided || st.shadowMaybe:
				continue
			case len(st.shadowers) == 0:
				if _, expr := e.dom.requestLineGuard(en); expr {
					continue
				}
				d.Cause = CauseUnsatisfiable
			default:
				_, ownExpr := e.dom.requestLineGuard(en)
				slices.Sort(st.shadowers)
				for _, j := range st.shadowers {
					reads, expr := e.dom.requestLineGuard(&ec.Entries[j])
					if expr || ownExpr && reads {
						d.ShadowedBy = nil
						break
					}
					d.ShadowedBy = append(d.ShadowedBy, int(j))
				}
				if d.ShadowedBy == nil {
					continue
				}
				d.Cause = CauseShadowed
			}
			out = append(out, d)
		}
	}
	return out
}

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

// requestLineGuard reports whether the entry's pre block matches the
// request line, and whether it does so with an "re:" expression — a
// guard the domain synthesizes no witnesses for.
func (d *domain) requestLineGuard(en *eacl.Entry) (reads, expr bool) {
	for _, c := range en.Block(eacl.BlockPre) {
		a, _ := d.atoms(c)
		reads = reads || a.Axis == conditions.AxisLine
		expr = expr || a.Exprs
	}
	return reads, expr
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
