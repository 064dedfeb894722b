// Package gaa implements the Generic Authorization and Access-control
// API (GAA-API) of Ryutov et al. (ICDCS 2003): a generic policy
// evaluation engine over EACL policies (package eacl) with tri-state
// results, a pluggable condition-evaluator registry, system/local policy
// composition, and the paper's three enforcement phases:
//
//  1. CheckAuthorization — pre-conditions and request-result conditions,
//     before the requested operation starts.
//  2. ExecutionControl — mid-conditions, during the operation.
//  3. PostExecutionActions — post-conditions, after the operation.
//
// # Evaluation semantics
//
// The paper's worked examples (sections 6 and 7) imply the following
// algorithm (DESIGN.md, "Interpretation notes"). spec.go is its
// executable statement, and the compiled engine is held to it:
//
// Entries are scanned first-to-last. An entry is considered when its
// right matches a requested right. Each pre-condition evaluates to
// YES / NO / MAYBE and carries a class:
//
//   - a selector NO makes the entry inapplicable and the scan continues
//     ("If no match is found, the GAA-API proceeds to the next EACL
//     entry", paper section 7.2);
//   - a requirement NO on a positive entry yields a final NO, optionally
//     with an authentication challenge (how section 7.1 forces user
//     authentication when the threat level rises);
//   - any MAYBE (and no NO) yields a final MAYBE carrying the
//     unevaluated conditions (how section 6's adaptive redirection
//     returns the redirect URL);
//   - all YES fires the entry: grant for pos_access_right, deny for
//     neg_access_right.
//
// If the scan ends with no applicable entry the result is MAYBE
// ("uncertain"); the web-server integration translates that to
// HTTP_DECLINED so native access control decides.
package gaa

import "fmt"

// Decision is the tri-state result of GAA-API evaluation (the paper's
// YES / NO / MAYBE authorization, mid-condition and post-condition
// statuses).
type Decision int

const (
	// Yes: all evaluated conditions are met.
	Yes Decision = iota + 1
	// No: at least one condition failed.
	No
	// Maybe: no condition failed but at least one was left
	// unevaluated, or no policy entry applied ("uncertain").
	Maybe
)

// String returns "yes", "no" or "maybe".
func (d Decision) String() string {
	switch d {
	case Yes:
		return "yes"
	case No:
		return "no"
	case Maybe:
		return "maybe"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Conjoin combines two decisions as a conjunction: NO dominates, then
// MAYBE, then YES. The zero Decision is treated as neutral (identity),
// so Conjoin folds cleanly over a slice.
func Conjoin(a, b Decision) Decision {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	switch {
	case a == No || b == No:
		return No
	case a == Maybe || b == Maybe:
		return Maybe
	default:
		return Yes
	}
}

// Disjoin combines two decisions as a disjunction: YES dominates, then
// MAYBE, then NO. The zero Decision is neutral.
func Disjoin(a, b Decision) Decision {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	switch {
	case a == Yes || b == Yes:
		return Yes
	case a == Maybe || b == Maybe:
		return Maybe
	default:
		return No
	}
}
