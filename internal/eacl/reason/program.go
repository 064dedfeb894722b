package reason

import (
	"context"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// program.go translates the composed policy into datalog facts and
// rules over the world grid; the gaa engine's own level conjunction and
// composition fold run on top of the fixpoint.
//
// The extensional database encodes, per (world, eacl, entry), what the
// entry would do if the first-match scan reached it:
//
//	blocked(w, e, i)            — right mismatch, or a selector/neg NO
//	                              makes the entry inapplicable
//	decides(w, e, i, out, chal) — the entry ends the scan with outcome
//	                              out (fires-yes / fires-no / maybe /
//	                              final-no) and challenge chal
//
// The intensional relations mirror the scan itself, as linear rules:
//
//	scan(w, e, 0).
//	scan(w, e, i+1)        ← scan(w, e, i) ∧ blocked(w, e, i)
//	decided(w, e, i, out…) ← scan(w, e, i) ∧ decides(w, e, i, out…)
//	exhausted(w, e)        ← scan(w, e, N_e)
//
// Semi-naive bottom-up evaluation of those rules computes, for every
// world at once, which entry decides each EACL — the recursive core of
// first-match semantics. The per-level conjunction (gaa.LevelFold) and
// the composition-mode merge (gaa.ComposeVerdicts) are deterministic
// folds over that fixpoint, applied by Engine.foldWorld.

// Entry-local outcome codes (the `out` column of decides/decided).
const (
	outFireYes int32 = iota + 1 // all pre conditions YES on a pos entry
	outFireNo                   // all pre conditions YES on a neg entry
	outMaybe                    // no NO, at least one MAYBE
	outFinalNo                  // requirement NO on a pos entry
)

// condEval is one evaluated pre/rr condition atom.
type condEval struct {
	cond eacl.Condition
	out  gaa.Outcome
}

// entryModel is the per-world entry-local behaviour fed into the EDB.
type entryModel struct {
	matches bool
	blocked bool  // matches but locally inapplicable (selector/neg NO)
	out     int32 // valid when !blocked && matches
	chal    string
	inexact bool // an atom consulted ambient state the world can't pin
	pre     []condEval
}

// condInexact reports condition types whose outcome depends on state
// outside the world assignment (the file system), making per-world
// truth unrepeatable. Worlds touching them are excluded from positive
// answers.
func condInexact(condType string) bool { return condType == "file_sha256" }

// modelEntry evaluates one entry's pre block in scan order through the
// engine's own condition seam and mirrors the scan's inner loop.
func modelEntry(ctx context.Context, env *worldEnv, en *eacl.Entry, w *world) entryModel {
	m := entryModel{matches: eacl.MatchRight(en.Right, w.right)}
	if !m.matches {
		m.blocked = true
		return m
	}
	sawNo := false
	maybes := 0
	for _, cond := range en.Conditions {
		if cond.Block != eacl.BlockPre {
			continue
		}
		out := env.api.EvalCondition(ctx, cond, env.req)
		m.pre = append(m.pre, condEval{cond: cond, out: out})
		if condInexact(cond.Type) {
			m.inexact = true
		}
		switch out.Result {
		case gaa.No:
			if gaa.OutcomeClass(out) == gaa.ClassSelector || en.Right.Sign == eacl.Neg {
				sawNo = true
			} else {
				m.out, m.chal = outFinalNo, out.Challenge
				return m
			}
		case gaa.Maybe:
			maybes++
		case gaa.Yes:
			// met; continue within the entry
		default:
			maybes++ // invalid decision: unevaluated, fail-safe
		}
		if sawNo {
			break
		}
	}
	switch {
	case sawNo:
		m.blocked = true
	case maybes > 0:
		m.out = outMaybe
	case en.Right.Sign == eacl.Pos:
		m.out = outFireYes
	default:
		m.out = outFireNo
	}
	return m
}

// scanProgram is the datalog program plus the lookup tables the fold
// needs afterwards.
type scanProgram struct {
	prog       *program
	blockedRel *relation
	decidesRel *relation
	scan       *relation
	decided    *relation
	exhausted  *relation
	chalTab    []string // challenge interning; index 0 is ""
	chalIDs    map[string]int32
}

func newScanProgram() *scanProgram {
	sp := &scanProgram{
		prog:    &program{},
		chalTab: []string{""},
		chalIDs: map[string]int32{"": 0},
	}
	blocked := sp.prog.relation("blocked")
	decides := sp.prog.relation("decides")
	sp.scan = sp.prog.relation("scan")
	sp.decided = sp.prog.relation("decided")
	sp.exhausted = sp.prog.relation("exhausted")
	sp.blockedRel = blocked
	sp.decidesRel = decides
	return sp
}

func (sp *scanProgram) intern(chal string) int32 {
	if id, ok := sp.chalIDs[chal]; ok {
		return id
	}
	id := int32(len(sp.chalTab))
	sp.chalTab = append(sp.chalTab, chal)
	sp.chalIDs[chal] = id
	return id
}

// addEntry records one (world, eacl, entry) model in the EDB.
func (sp *scanProgram) addEntry(w, e, i int32, m entryModel) {
	if m.blocked {
		sp.blockedRel.insert(tuple{w, e, i})
		return
	}
	sp.decidesRel.insert(tuple{w, e, i, m.out, sp.intern(m.chal)})
}

// installRules wires the linear scan rules; entries[e] is the entry
// count of EACL e (same for every world).
func (sp *scanProgram) installRules(worlds int32, entries []int32) {
	blocked, decides := sp.blockedRel, sp.decidesRel
	scan, decided, exhausted := sp.scan, sp.decided, sp.exhausted
	// scan(w, e, i) ∧ blocked(w, e, i) → scan(w, e, i+1)
	// scan(w, e, i) ∧ decides(w, e, i, o, c) → decided(w, e, i, o, c)
	// scan(w, e, N_e) → exhausted(w, e)
	sp.prog.rule(scan, func(t tuple, emit func(*relation, tuple)) {
		w, e, i := t[0], t[1], t[2]
		if i >= entries[e] {
			emit(exhausted, tuple{w, e})
			return
		}
		if blocked.has(tuple{w, e, i}) {
			emit(scan, tuple{w, e, i + 1})
		}
		for o := outFireYes; o <= outFinalNo; o++ {
			for c := int32(0); c < int32(len(sp.chalTab)); c++ {
				if decides.has(tuple{w, e, i, o, c}) {
					emit(decided, tuple{w, e, i, o, c})
				}
			}
		}
	})
	// Seed: scan(w, e, 0) for every world and EACL.
	for w := int32(0); w < worlds; w++ {
		for e := range entries {
			sp.scan.insert(tuple{w, int32(e), 0})
		}
	}
}

func (sp *scanProgram) run() { sp.prog.run() }

// eaclOutcome reads one (world, eacl) result off the fixpoint.
type eaclOutcome struct {
	gaa.Verdict
	entry int32 // deciding entry index, -1 when inapplicable
	out   int32 // entry-local outcome code, 0 when inapplicable
}

func (sp *scanProgram) outcome(w, e int32, entries int32) eaclOutcome {
	for i := int32(0); i < entries; i++ {
		for o := outFireYes; o <= outFinalNo; o++ {
			for c := int32(0); c < int32(len(sp.chalTab)); c++ {
				if !sp.decided.has(tuple{w, e, i, o, c}) {
					continue
				}
				res := eaclOutcome{entry: i, out: o}
				res.Verdict = gaa.Verdict{Applicable: true, Challenge: sp.chalTab[c]}
				switch o {
				case outFireYes:
					res.Decision = gaa.Yes
				case outFireNo, outFinalNo:
					res.Decision = gaa.No
				case outMaybe:
					res.Decision = gaa.Maybe
				}
				return res
			}
		}
	}
	return eaclOutcome{Verdict: gaa.Verdict{Decision: gaa.Maybe}, entry: -1}
}
