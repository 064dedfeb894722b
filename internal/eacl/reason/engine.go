// Package reason is a whole-policy reasoning engine for composed EACL
// policies — the "who can do what, when?" layer on top of the per-file
// static analysis (internal/eacl/analysis). It translates a composed
// policy into datalog facts and rules over a finite abstract domain
// built from the policy's own text (glob witnesses, CIDR interior
// points, time-window boundaries, comparison bounds, the tri-level
// threat scale and authenticated/anonymous principals), runs semi-naive
// bottom-up evaluation mirroring the gaa engine's first-match scan,
// composes with the engine's own level and composition folds, and
// answers reachability queries:
//
//	who-can(defauth, right[, threat])   — principals that obtain YES
//	reachable-without(cond-type)        — a YES needing no such condition
//	grant-differs()                     — worlds where the composed and
//	                                      system-only decisions diverge
//
// Every positive answer carries a concrete synthesized request; during
// construction the engine replays every world through the gaa decision
// engine and fails loudly if it disagrees with the abstract verdict.
// Soundness therefore reduces to domain coverage, which the engine
// tracks (Truncated, inexact worlds); see DESIGN.md §5.2 for the full
// argument and known incompleteness.
package reason

import (
	"context"
	"fmt"
	"strings"

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

// Verdict is the abstract (and replay-confirmed) phase-1 answer of one
// world.
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
}

type entryRef struct {
	eacl  int32
	entry int32
	out   int32
}

// entryStat aggregates per-entry reachability over all worlds.
type entryStat struct {
	decided      bool
	decidedMaybe bool
}

// Engine is an analyzed composition: the domain, the per-world
// verdicts, and per-entry reachability statistics.
type Engine struct {
	system, local []*eacl.EACL
	eacls         []*eacl.EACL // composition order: system then local
	nsys          int
	mode          eacl.CompositionMode
	sysExists     bool

	dom     *domain
	worlds  []world
	results []worldResult
	stats   [][]entryStat // [eaclIdx][entryIdx]
	opts    Options
}

// New builds the engine: domain extraction, per-world atom evaluation,
// the datalog fixpoint, the composition fold, and the differential
// replay of every world. A non-nil error means the abstract model and
// the real engine disagreed — a bug, never a policy property.
func New(system, local []*eacl.EACL, opts Options) (*Engine, error) {
	e := &Engine{system: system, local: local, mode: eacl.ModeNarrow, opts: opts}
	for _, s := range system {
		if s.ModeSet {
			e.mode = s.Mode
			break
		}
	}
	e.sysExists = len(system) > 0
	e.eacls = append(append([]*eacl.EACL{}, system...), local...)
	e.nsys = len(system)

	max := opts.MaxWorlds
	if max <= 0 {
		max = DefaultMaxWorlds
	}
	e.dom = buildDomain(e.eacls, opts)
	e.worlds = e.dom.worlds(max)

	e.stats = make([][]entryStat, len(e.eacls))
	entryCounts := make([]int32, len(e.eacls))
	for i, ec := range e.eacls {
		e.stats[i] = make([]entryStat, len(ec.Entries))
		entryCounts[i] = int32(len(ec.Entries))
	}

	ctx := context.Background()
	sp := newScanProgram()
	envs := make([]*worldEnv, len(e.worlds))
	models := make([][][]entryModel, len(e.worlds)) // [w][eacl][entry]
	for wi := range e.worlds {
		w := &e.worlds[wi]
		env := e.dom.env(w)
		envs[wi] = env
		models[wi] = make([][]entryModel, len(e.eacls))
		for ei, ec := range e.eacls {
			models[wi][ei] = make([]entryModel, len(ec.Entries))
			for i := range ec.Entries {
				m := modelEntry(ctx, env, &ec.Entries[i], w)
				models[wi][ei][i] = m
				sp.addEntry(int32(wi), int32(ei), int32(i), m)
			}
		}
	}
	sp.installRules(int32(len(e.worlds)), entryCounts)
	sp.run()

	for wi := range e.worlds {
		r := e.foldWorld(ctx, sp, envs[wi], models[wi], wi, entryCounts)
		if err := e.replay(ctx, envs[wi], &r); err != nil {
			return nil, err
		}
		e.results = append(e.results, r)
	}
	return e, nil
}

// foldWorld is the engine's level fold, composition and request-result
// conjunction for one world, reading the fixpoint.
func (e *Engine) foldWorld(ctx context.Context, sp *scanProgram, env *worldEnv, model [][]entryModel, wi int, entryCounts []int32) worldResult {
	r := worldResult{idx: wi, w: e.worlds[wi], deciderYes: map[string]bool{}}

	stopSys := e.mode == eacl.ModeStop && e.sysExists
	var sysF, locF gaa.LevelFold
	for ei := range e.eacls {
		isLocal := ei >= e.nsys
		if isLocal && stopSys {
			continue // locals never evaluated under stop
		}
		o := sp.outcome(int32(wi), int32(ei), entryCounts[ei])
		if o.Applicable {
			r.deciders = append(r.deciders, entryRef{eacl: int32(ei), entry: o.entry, out: o.out})
			st := &e.stats[ei][o.entry]
			st.decided = true
			if o.out == outMaybe {
				st.decidedMaybe = true
			}
			m := &model[ei][o.entry]
			if m.inexact {
				r.inexact = true
			}
			for _, ce := range m.pre {
				if ce.out.Result == gaa.Yes {
					r.deciderYes[ce.cond.Type] = true
				}
			}
		}
		if isLocal {
			locF.Add(o.Verdict)
		} else {
			sysF.Add(o.Verdict)
		}
	}
	sys := sysF.Result()
	r.composed = e.conjoinRR(ctx, env, gaa.ComposeVerdicts(e.mode, e.sysExists, sys, locF.Result()), r.deciders, false)
	if e.opts.SystemOnly {
		noLocal := Verdict{Decision: gaa.Maybe}
		r.sysOnly = e.conjoinRR(ctx, env, gaa.ComposeVerdicts(e.mode, e.sysExists, sys, noLocal), r.deciders, true)
	}
	return r
}

// conjoinRR mirrors the request-result phase: the deciders' rr blocks
// run with the composed decision visible and conjoin into it.
// systemOnly restricts to system-level deciders (the projection never
// evaluated local EACLs).
func (e *Engine) conjoinRR(ctx context.Context, env *worldEnv, v Verdict, deciders []entryRef, systemOnly bool) Verdict {
	req := *env.req
	req.Decision = v.Decision
	for _, d := range deciders {
		if systemOnly && int(d.eacl) >= e.nsys {
			continue
		}
		en := &e.eacls[d.eacl].Entries[d.entry]
		var combined gaa.Decision
		evaluated := false
		for _, cond := range en.Conditions {
			if cond.Block != eacl.BlockRequestResult {
				continue
			}
			evaluated = true
			out := env.api.EvalCondition(ctx, cond, &req)
			combined = gaa.Conjoin(combined, out.Result)
		}
		if evaluated {
			v.Decision = gaa.Conjoin(v.Decision, combined)
		}
	}
	return v
}

// replay runs the synthesized request through the gaa engine and
// compares its answer against the abstract verdict.
func (e *Engine) replay(ctx context.Context, env *worldEnv, r *worldResult) error {
	check := func(local []*eacl.EACL, want Verdict, label string) error {
		ans, err := env.api.CheckAuthorization(ctx, gaa.NewPolicy("reason", e.system, local), env.req)
		if err != nil {
			return fmt.Errorf("reason: replay %s: %v", label, err)
		}
		got := Verdict{Decision: ans.Decision, Applicable: ans.Applicable, Challenge: ans.Challenge}
		if got != want && !r.inexact { // ambient state (file hashes) may differ between runs
			return fmt.Errorf("reason: %s disagrees with abstract verdict on world %s: abstract %+v, engine %+v",
				label, describeWorld(e.dom, &r.w), want, got)
		}
		return nil
	}
	if err := check(e.local, r.composed, "engine"); err != nil {
		return err
	}
	if e.opts.SystemOnly {
		return check(nil, r.sysOnly, "engine (system-only)")
	}
	return nil
}

// Worlds returns the number of worlds modeled.
func (e *Engine) Worlds() int { return len(e.results) }

// Truncated reports whether the grid is known not to cover the policy
// — a dimension or world cap was hit, or no clean URI dodging every
// regex pattern could be found — in which case universal claims
// (proofs, dead-entry findings) are downgraded to "unknown".
func (e *Engine) Truncated() bool { return e.dom.incomplete() }

// DeadEntry is an entry the prover found unreachable in every world.
type DeadEntry struct {
	Source string `json:"source"`
	Line   int    `json:"line"`
	Right  string `json:"right"`
}

// DeadEntries returns entries that never decided in any world, with the
// suppressions that keep the claim sound:
//
//   - the domain was truncated (coverage incomplete) — nothing reported;
//   - the entry's own pre block carries an "re:" regular expression
//     (witnesses for regexes are not synthesized);
//   - an earlier entry in the same EACL decided MAYBE somewhere (with
//     the unevaluated condition resolved, the scan could continue past
//     it and reach this entry).
func (e *Engine) DeadEntries() []DeadEntry {
	if e.dom.incomplete() {
		return nil
	}
	var out []DeadEntry
	for ei, ec := range e.eacls {
		maybeAbove := false
		for i := range ec.Entries {
			st := e.stats[ei][i]
			if !st.decided && !maybeAbove && !entryHasRegexRe(&ec.Entries[i]) {
				out = append(out, DeadEntry{
					Source: ec.Source,
					Line:   ec.Entries[i].Line,
					Right:  ec.Entries[i].Right.String(),
				})
			}
			if st.decidedMaybe {
				maybeAbove = true
			}
		}
	}
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
			if d.out != outFireYes {
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

// entryHasRegexRe reports whether the entry's pre block contains a
// regex condition with an "re:" pattern — a guard the domain cannot
// synthesize witnesses for.
func entryHasRegexRe(en *eacl.Entry) bool {
	for _, c := range en.Conditions {
		if c.Block != eacl.BlockPre || (c.Type != "regex" && c.Type != "signature") {
			continue
		}
		for _, p := range strings.Fields(c.Value) {
			if strings.HasPrefix(p, "re:") {
				return true
			}
		}
	}
	return false
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
