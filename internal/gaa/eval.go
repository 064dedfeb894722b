package gaa

import (
	"context"

	"gaaapi/internal/eacl"
)

// evalResult is the outcome of scanning one EACL, one level or the
// whole composition: the verdict and the diagnostics beside it.
type evalResult struct {
	Verdict
	source      string
	unevaluated []eacl.Condition
	trace       []TraceEvent
	faults      []Fault
}

// evaluateCondition runs one condition through ev, its registered
// evaluator, nil when none is registered. Unregistered conditions
// evaluate to MAYBE/unevaluated (paper section 6: "The GAA-API returns
// MAYBE if the corresponding condition evaluation function is not
// registered"). Registered evaluators run behind the supervision layer
// (supervise.go), which recovers panics, enforces the optional
// per-evaluator deadline, and degrades errors and invalid decisions to
// MAYBE with a tagged Fault; the error check below is only a safety net
// for outcomes that bypass supervision.
func (a *API) evaluateCondition(ctx context.Context, ev Evaluator, cond eacl.Condition, req *Request) Outcome {
	if ev == nil {
		return UnevaluatedOutcome("no evaluator registered")
	}
	// Adaptive constraint specification (paper section 2): '@name'
	// tokens in the condition value resolve through the runtime value
	// provider before the evaluator sees them.
	if resolved, ok := ResolveValue(cond.Value, a.values); ok {
		cond.Value = resolved
	} else {
		return UnevaluatedOutcome("unresolved runtime value reference in " + cond.Value)
	}
	out := ev.Evaluate(ctx, cond, req)
	if out.Err != nil && out.Result != No {
		// Fail safe: an erroring evaluator cannot assert YES.
		out.Result = Maybe
		out.Unevaluated = true
	}
	return out
}
