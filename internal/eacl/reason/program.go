package reason

import (
	"context"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// program.go models one world: what each entry would do if the
// first-match scan reached it (entryModel), computed through the
// engine's own condition seam, and where the scan stops (decide). The
// per-level conjunction (gaa.LevelFold) and the composition-mode merge
// (gaa.ComposeVerdicts) fold the per-EACL outcomes in Engine.foldWorld.

// Entry-local outcome codes.
const (
	outFireYes int32 = iota + 1 // all pre conditions YES on a pos entry
	outFireNo                   // all pre conditions YES on a neg entry
	outMaybe                    // no NO, at least one MAYBE
	outFinalNo                  // requirement NO on a pos entry
)

// entryModel is what one entry would do in one world if the scan
// reached it.
type entryModel struct {
	blocked bool  // right mismatch, or locally inapplicable (selector/neg NO)
	out     int32 // valid when !blocked
	chal    string
	inexact bool     // an atom consulted ambient state the world can't pin
	yes     []string // types of the pre conditions that evaluated YES
}

// condInexact reports condition types whose outcome depends on state
// outside the world assignment (the file system), making per-world
// truth unrepeatable. Worlds touching them are excluded from positive
// answers.
func condInexact(condType string) bool { return condType == "file_sha256" }

// modelEntry evaluates one entry's pre block in scan order through the
// engine's own condition seam and mirrors the scan's inner loop.
func modelEntry(ctx context.Context, env *worldEnv, en *eacl.Entry, w *world) entryModel {
	var m entryModel
	if !eacl.MatchRight(en.Right, w.right) {
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
			m.yes = append(m.yes, cond.Type) // met; continue within the entry
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

// eaclOutcome is where one EACL's scan stopped in one world.
type eaclOutcome struct {
	gaa.Verdict
	entry int32 // deciding entry index, -1 when inapplicable
	out   int32 // entry-local outcome code, 0 when inapplicable
}

// decide is the first-match scan over one EACL's entry models: the
// first entry not blocked decides.
func decide(model []entryModel) eaclOutcome {
	for i, m := range model {
		if m.blocked {
			continue
		}
		res := eaclOutcome{entry: int32(i), out: m.out}
		res.Verdict = gaa.Verdict{Decision: gaa.No, Applicable: true, Challenge: m.chal}
		switch m.out {
		case outFireYes:
			res.Decision = gaa.Yes
		case outMaybe:
			res.Decision = gaa.Maybe
		}
		return res
	}
	return eaclOutcome{Verdict: gaa.Verdict{Decision: gaa.Maybe}, entry: -1}
}
