package reason

import (
	"fmt"

	"gaaapi/internal/gaa"
)

// Proofs are universal claims over the world grid. Unlike queries, a
// proof can come back "unknown": when the domain was truncated the grid
// no longer covers the policy's behaviours and a universal claim cannot
// be discharged; when an inexact world (one whose verdict consulted
// ambient state, e.g. a file hash) violates the property, the violation
// existed at analysis time but cannot be pinned to a replayable witness.
//
//	no-anonymous-yes — no unauthenticated request obtains a composed YES
//	no-dead-entries  — every entry decides its EACL in some world (after
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
		if e.dom.incomplete() {
			res.Result = Unknown
			res.Reason = e.Incomplete()
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
