package conditions

import (
	"context"
	"fmt"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/ids"
)

// threatEvaluator implements pre_cond_system_threat_level with values
// like "=high", ">low" or "<=medium" (paper sections 7.1 and 7.2). It
// is a selector: threat-level mismatches switch between the EACL's
// disjoint policies ("a transition between the disjoint EACL entries is
// regulated automatically by reading the system state", section 2).
type threatEvaluator struct {
	provider ids.LevelProvider
}

// threatTest is a parsed threat-level comparison against the live
// level of provider.
type threatTest struct {
	gaa.NoChallenge
	provider ids.LevelProvider
	op       comparator
	want     ids.Level
}

func parseThreat(value string, provider ids.LevelProvider) (threatTest, error) {
	left, op, right, err := splitCmp(value)
	if err != nil {
		return threatTest{}, err
	}
	if left != "" {
		return threatTest{}, fmt.Errorf("unexpected left operand %q", left)
	}
	want, err := ids.ParseLevel(right)
	return threatTest{provider: provider, op: op, want: want}, err
}

// holds reports whether level satisfies the comparison.
func (t threatTest) holds(level ids.Level) bool {
	return t.op.holdsInt(int64(level), int64(t.want))
}

func (t threatTest) EvalCompiled(*gaa.Request) gaa.CondVerdict {
	return selector(t.holds(t.provider.Level()))
}

// atoms reads no request axis: the level is the provider's.
func (threatEvaluator) atoms(value string) (Atoms, error) {
	_, err := parseThreat(value, nil)
	return Atoms{}, err
}

// CompileCond implements gaa.CondCompiler.
func (e threatEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	if e.provider == nil {
		return nil, false
	}
	return hoisted(parseThreat(cond.Value, e.provider))
}

func (e threatEvaluator) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	t, err := parseThreat(cond.Value, e.provider)
	if err != nil {
		return malformed(err)
	}
	if e.provider == nil {
		return gaa.UnevaluatedOutcome("no threat-level provider configured")
	}
	cur := e.provider.Level()
	// Formatted details are trace-only decoration; skip the Sprintf
	// entirely on the untraced hot path.
	if t.holds(cur) {
		if req.Trace {
			return gaa.MetOutcome(gaa.ClassSelector, fmt.Sprintf("threat %s %s %s", cur, t.op, t.want))
		}
		return gaa.MetOutcome(gaa.ClassSelector, "threat level matches")
	}
	if req.Trace {
		return gaa.FailedOutcome(gaa.ClassSelector, fmt.Sprintf("threat %s not %s %s", cur, t.op, t.want))
	}
	return gaa.FailedOutcome(gaa.ClassSelector, "threat level differs")
}
