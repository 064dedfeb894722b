package reason

import (
	"fmt"
	"slices"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// Proofs are universal claims over every request. Unlike queries, a
// proof can come back "unknown": when a condition reads state outside
// the request the regions no longer cover the policy's behaviours and a
// universal claim cannot be discharged; when an inexact world (one whose
// verdict consulted ambient state, e.g. a file hash) violates the
// property, the violation existed at analysis time but cannot be pinned
// to a replayable witness.
//
//	no-anonymous-yes — no unauthenticated request obtains a composed YES
//	no-dead-entries  — every entry decides its EACL on some region (after
//	                   the DeadEntries suppressions; see that method);
//	                   each dead entry carries its cause

// Proof outcomes.
const (
	Proved  = "proved"
	Refuted = "refuted"
	Unknown = "unknown"
)

// ProofResult is the JSON answer to one -prove flag.
type ProofResult struct {
	Prove       string      `json:"prove"`
	Result      string      `json:"result"` // proved | refuted | unknown
	Reason      string      `json:"reason,omitempty"`
	Witnesses   []Witness   `json:"witnesses,omitempty"`
	DeadEntries []DeadEntry `json:"dead_entries,omitempty"`
	Worlds      int         `json:"worlds"`
}

// ProofNames lists the supported properties.
var ProofNames = []string{"no-anonymous-yes", "no-dead-entries"}

// Prove discharges one named property.
func (e *Engine) Prove(name string) (*ProofResult, error) {
	res := &ProofResult{Prove: name, Worlds: len(e.results)}
	switch name {
	case "no-anonymous-yes":
		inexactHit := false
		for i := range e.results {
			r := &e.results[i]
			if r.w.user != "" || r.composed.Decision != gaa.Yes {
				continue
			}
			if r.inexact {
				inexactHit = true
				continue
			}
			res.Result = Refuted
			if len(res.Witnesses) < maxWitnesses {
				res.Witnesses = append(res.Witnesses, e.witness(r, false))
			}
		}
		switch {
		case res.Result == Refuted:
		case inexactHit:
			res.Result = Unknown
			res.Reason = "an anonymous YES depends on ambient state (inexact world)"
		case e.dom.incomplete():
			res.Result = Unknown
			res.Reason = e.Incomplete()
		default:
			res.Result = Proved
		}
	case "no-dead-entries":
		if res.Reason = e.Incomplete(); res.Reason != "" {
			res.Result = Unknown
			return res, nil
		}
		res.DeadEntries = e.DeadEntries()
		if len(res.DeadEntries) > 0 {
			res.Result = Refuted
		} else {
			res.Result = Proved
		}
	default:
		return nil, fmt.Errorf("unknown property %q (have: %v)", name, ProofNames)
	}
	return res, nil
}

// Unsatisfiable is the one definition of an entry that can never fire:
// its region is empty. The region is the requests its right matches on
// which each pre-condition holds, a condition that is MAYBE for every
// request (unregistered, malformed, an unresolved '@' reference)
// counting as holding. core is nil when the region is not empty, else
// the pre-conditions that cannot hold together: those of the first type
// that cannot alone, or all of them. unknown says why the walk may miss
// the region: a condition reads state outside the request. It walks on e.
func (e *Engine) Unsatisfiable(en eacl.Entry) (core []eacl.Condition, unknown string) {
	if empty, unknown := e.emptyRegion(en); !empty {
		return nil, unknown
	}
	core = en.Block(eacl.BlockPre)
	for _, c := range core {
		sub := slices.DeleteFunc(en.Block(eacl.BlockPre), func(o eacl.Condition) bool { return o.Type != c.Type })
		if empty, _ := e.emptyRegion(eacl.Entry{Right: en.Right, Conditions: sub}); empty {
			return sub, ""
		}
	}
	return core, ""
}

// emptyRegion reports whether en holds in none of the worlds of its
// one-entry policy, which the walk folds and replays through the
// compiled engine; a disagreement is unknown.
func (e *Engine) emptyRegion(en eacl.Entry) (empty bool, unknown string) {
	w, err := e.Walk(&eacl.EACL{Source: "entry", Entries: []eacl.Entry{en}})
	if err != nil {
		return false, err.Error()
	}
	for i := range w.results {
		if w.results[i].held {
			return false, ""
		}
	}
	if w.dom.incomplete() {
		return false, w.Incomplete()
	}
	return true, ""
}

// holds reports whether an entry model has every pre-condition hold:
// none NO, and each MAYBE one that no request changes.
func (e *Engine) holds(m *gaa.EntryModel) bool {
	for _, ev := range m.Evaluated {
		if ev.Outcome.Result == gaa.No {
			return false
		}
	}
	return !slices.ContainsFunc(m.Unevaluated, func(c eacl.Condition) bool {
		a, cells := e.dom.atoms(c)
		return cells && a.Axis != conditions.AxisNone
	})
}
