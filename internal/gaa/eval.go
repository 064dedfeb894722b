package gaa

import (
	"context"

	"gaaapi/internal/eacl"
)

// evalResult is the outcome of scanning one EACL.
type evalResult struct {
	decision    Decision
	applicable  bool
	entry       *eacl.Entry // deciding entry, nil when inapplicable
	source      string
	unevaluated []eacl.Condition
	challenge   string
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
	if resolved, ok := resolveValue(cond.Value, a.values); ok {
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

// evaluateBlock evaluates an ordered condition slice (request-result,
// mid or post blocks) and returns the conjunction of the outcomes plus
// the trace (nil unless req.Trace is set). Used by the request-result,
// execution-control and post-execution phases where every condition
// runs (no entry-selection short-circuit).
func (a *API) evaluateBlock(ctx context.Context, source string, entryLine int, conds []eacl.Condition, req *Request) (Decision, []TraceEvent) {
	if len(conds) == 0 {
		return Yes, nil
	}
	var (
		combined Decision
		trace    []TraceEvent
	)
	if req.Trace {
		trace = make([]TraceEvent, 0, len(conds))
	}
	for _, cond := range conds {
		out := a.evaluateCondition(ctx, cond, req)
		if req.Trace || out.Fault != FaultNone {
			trace = append(trace, TraceEvent{
				Source: source, EntryLine: entryLine, Cond: cond, Outcome: out,
			})
		}
		combined = Conjoin(combined, out.Result)
	}
	return combined, trace
}

// evaluateEntryBlock evaluates the conditions of one block of an entry
// (filtered inline, no intermediate slice) with the conjunction
// appended-trace protocol of evaluateBlock. The second return reports
// whether the entry had any condition in the block; an empty block
// yields (Yes, false) so callers skip the conjunction, matching the
// original Entry.Block + evaluateBlock behaviour.
func (a *API) evaluateEntryBlock(ctx context.Context, source string, entry *eacl.Entry, b eacl.Block, req *Request, trace *[]TraceEvent, faults *[]Fault) (Decision, bool) {
	var (
		combined  Decision
		evaluated bool
	)
	for ci := range entry.Conditions {
		cond := entry.Conditions[ci]
		if cond.Block != b {
			continue
		}
		evaluated = true
		out := a.evaluateCondition(ctx, cond, req)
		if out.Fault != FaultNone && faults != nil {
			*faults = append(*faults, Fault{Cond: cond, Kind: out.Fault, Reason: out.faultReason()})
		}
		if req.Trace || out.Fault != FaultNone {
			*trace = append(*trace, TraceEvent{
				Source: source, EntryLine: entry.Line, Cond: cond, Outcome: out,
			})
		}
		combined = Conjoin(combined, out.Result)
	}
	if !evaluated {
		return Yes, false
	}
	return combined, true
}
