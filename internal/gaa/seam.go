package gaa

import (
	"context"

	"gaaapi/internal/eacl"
)

// EvalCondition evaluates one condition exactly as the decision engine
// does during a scan: registry lookup (unregistered types evaluate to
// MAYBE), '@name' runtime-value resolution through the API's
// ValueProvider, and the supervision layer around the registered
// evaluator. It is the witness-replay seam for whole-policy analysis
// (internal/eacl/reason): the prover computes per-world condition atoms
// through this call, so an atom and the engine's own evaluation of the
// same condition in the same world cannot drift apart.
func (a *API) EvalCondition(ctx context.Context, cond eacl.Condition, req *Request) Outcome {
	ev, _ := a.reg.lookup(cond.Type, cond.DefAuth)
	return a.evaluateCondition(ctx, ev, cond, req)
}

// OutcomeClass resolves an outcome's effective class the way the scan
// does: the zero Class means ClassSelector.
func OutcomeClass(o Outcome) Class {
	return o.classOrDefault()
}
