package conditions

import (
	"context"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// redirectEvaluator implements pre_cond_redirect: it is returned
// unevaluated by design, carrying the target URL in the condition
// value. The web-server integration detects a MAYBE answer whose only
// unevaluated condition is a redirect and issues HTTP_MOVED with that
// URL (paper section 6: "The condition of type pre_cond_redirect
// encodes the URL and is returned unevaluated").
type redirectEvaluator struct{ gaa.NoChallenge }

func (redirectEvaluator) Evaluate(context.Context, eacl.Condition, *gaa.Request) gaa.Outcome {
	return gaa.UnevaluatedOutcome("redirect deferred to the application")
}

// CompileCond implements gaa.CondCompiler: with no value to parse and
// a constant outcome by design, the evaluator is its own test.
func (e redirectEvaluator) CompileCond(eacl.Condition) (gaa.CompiledCond, bool) { return e, true }

func (redirectEvaluator) EvalCompiled(*gaa.Request) gaa.CondVerdict { return gaa.CondMaybe }
