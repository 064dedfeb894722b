package gaa

import (
	"context"

	"gaaapi/internal/eacl"
)

// evalResult is the outcome of scanning one EACL, one level or the
// whole composition: the verdict and the diagnostics beside it.
type evalResult struct {
	Verdict
	entry       *eacl.Entry // deciding entry, nil when inapplicable
	source      string
	unevaluated []eacl.Condition
	trace       []TraceEvent
	faults      []Fault
}

// evaluateCondition dispatches one condition to its registered
// evaluator. Unregistered conditions evaluate to MAYBE/unevaluated
// (paper section 6: "The GAA-API returns MAYBE if the corresponding
// condition evaluation function is not registered"). Registered
// evaluators run behind the supervision layer (supervise.go), which
// recovers panics, enforces the optional per-evaluator deadline, and
// degrades errors and invalid decisions to MAYBE with a tagged Fault;
// the error check below is only a safety net for outcomes that bypass
// supervision.
func (a *API) evaluateCondition(ctx context.Context, cond eacl.Condition, req *Request) Outcome {
	ev, ok := a.reg.lookup(cond.Type, cond.DefAuth)
	if !ok {
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

// evaluateBlock evaluates the conditions of conds that belong to block
// b (request-result, mid or post) and returns the conjunction of their
// outcomes: in these phases every condition runs, there is no
// entry-selection short-circuit. Trace events (every step of a traced
// request, faults always) are appended to *trace and faults, when the
// caller collects them, to *faults. The second return reports whether
// conds held any condition of the block; none yields (Yes, false).
func (a *API) evaluateBlock(ctx context.Context, source string, line int, conds []eacl.Condition, b eacl.Block, req *Request, trace *[]TraceEvent, faults *[]Fault) (Decision, bool) {
	var (
		combined  Decision
		evaluated bool
	)
	for _, cond := range conds {
		if cond.Block != b {
			continue
		}
		evaluated = true
		out := a.evaluateCondition(ctx, cond, req)
		if out.Fault != FaultNone && faults != nil {
			*faults = append(*faults, Fault{Cond: cond, Kind: out.Fault, Reason: out.faultReason()})
		}
		if req.Trace || out.Fault != FaultNone {
			*trace = append(*trace, TraceEvent{Source: source, EntryLine: line, Cond: cond, Outcome: out})
		}
		combined = Conjoin(combined, out.Result)
	}
	if !evaluated {
		return Yes, false
	}
	return combined, true
}
