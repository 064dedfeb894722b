package reason

import (
	"cmp"
	"fmt"
	"slices"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
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

// Unsatisfiable is the one definition of an entry that can never
// decide: modeled alone, on a grid built from its own conditions, it
// decides in no world. core is nil when it can decide, else the
// pre-conditions that cannot hold together: those of the first type
// that cannot alone, or all of them. unknown says why the grid may miss
// the worlds where a dead entry decides, or how the replay failed.
func Unsatisfiable(en eacl.Entry) (core []eacl.Condition, unknown string) {
	if dead, unknown := deadAlone(en); !dead {
		return nil, unknown
	}
	core = en.Block(eacl.BlockPre)
	for _, c := range core {
		sub := slices.DeleteFunc(en.Block(eacl.BlockPre), func(o eacl.Condition) bool { return o.Type != c.Type })
		if dead, _ := deadAlone(eacl.Entry{Right: en.Right, Conditions: sub}); dead {
			return sub, ""
		}
	}
	return core, ""
}

// deadAlone reports whether en decides in no world of its own grid.
func deadAlone(en eacl.Entry) (dead bool, unknown string) {
	e, err := build(nil, []*eacl.EACL{{Source: "entry", Entries: []eacl.Entry{en}}}, Options{}, true)
	if err != nil {
		return false, err.Error()
	} else if e.stats[0][0].decided {
		return false, ""
	}
	why := cmp.Or(e.Incomplete(), e.dom.blindSpot(&en))
	return why == "", why
}

// blindSpot says why a grid holding each pattern's own witnesses may
// miss the worlds where en decides, "" when it cannot: no witness is
// synthesized for an "re:" expression, nor one two '*'-glob conditions
// on one axis share. CIDRs alone are exact: a block's network address
// lies in every block overlapping it.
func (d *domain) blindSpot(en *eacl.Entry) string {
	if _, expr := d.requestLineGuard(en); expr {
		return `incomplete domain: no witness is synthesized for an "re:" expression`
	}
	reads, globbed := map[conditions.Axis]int{}, map[conditions.Axis]bool{}
	for _, c := range en.Block(eacl.BlockPre) {
		a, _ := d.atoms(c)
		reads[a.Axis]++
		if len(a.Globs) > 0 {
			globbed[a.Axis] = true
		}
	}
	for axis := range globbed {
		if reads[axis] > 1 {
			return "incomplete domain: two conditions match one axis with '*'-globs, and no witness of both is synthesized"
		}
	}
	return ""
}
