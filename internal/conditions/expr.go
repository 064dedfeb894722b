package conditions

import (
	"context"
	"fmt"
	"strconv"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// cmpEvaluator implements the two conditions whose value is a numeric
// comparison over a request parameter; they differ in class and in how
// the outcome is worded.
//
// pre_cond_expr, e.g. "input_length>1000", is the paper's buffer-
// overflow detector ("checks that the length of input to a CGI script
// is no longer than 1000 characters", section 7.2). It is a selector.
//
// mid_cond_quota, e.g. "cpu_ms<=50", is a usage limit that must hold
// during operation execution — the paper's "CPU usage threshold that
// must hold during the operation execution" (section 2). It is a
// requirement: a violated quota is a final NO for the execution-control
// phase. Both hoist: the compiled engine runs every block's conditions.
type cmpEvaluator struct {
	class             gaa.Class
	noParam           string // detail prefix when the parameter is absent
	holds, fails      string // untraced details
	holdsFmt, failFmt string // traced details over (param, got, op, bound)
}

// Pointers, so handing one out as a gaa.Evaluator copies nothing.
var (
	exprEvaluator = &cmpEvaluator{gaa.ClassSelector, "no numeric parameter ",
		"expr holds", "expr does not hold", "%s=%d %s %d", "%s=%d not %s %d"}
	quotaEvaluator = &cmpEvaluator{gaa.ClassRequirement, "no usage parameter ",
		"within quota", "quota violated", "%s=%d within %s%d", "%s=%d violates %s%d"}
)

// cmpTest is a parsed comparison: a parameter name, a comparator and
// an integer bound.
type cmpTest struct {
	gaa.NoChallenge
	param, defAuth string
	op             comparator
	bound          int64
	class          gaa.CondVerdict // the class bit of a met or failed test
}

func parseCmp(value, defAuth string) (cmpTest, error) {
	left, op, right, err := splitCmp(value)
	if err != nil {
		return cmpTest{}, err
	}
	if left == "" {
		return cmpTest{}, fmt.Errorf("comparison needs a parameter name: %q", value)
	}
	bound, err := strconv.ParseInt(right, 10, 64)
	if err != nil {
		return cmpTest{}, fmt.Errorf("bad number %q", right)
	}
	return cmpTest{param: left, defAuth: defAuth, op: op, bound: bound}, nil
}

func (cmpEvaluator) atoms(value string) (Atoms, error) {
	t, err := parseCmp(value, "")
	return Atoms{Axis: AxisInt, Param: t.param, Op: t.op.String(), Bound: t.bound}, err
}

// compare returns the parameter's value and whether the comparison
// holds for it; ok is false when the request carries no such number.
func (t cmpTest) compare(req *gaa.Request) (got int64, holds, ok bool) {
	got, ok = req.Params.GetInt(t.param, t.defAuth)
	return got, ok && t.op.holdsInt(got, t.bound), ok
}

func (t cmpTest) EvalCompiled(req *gaa.Request) gaa.CondVerdict {
	_, holds, ok := t.compare(req)
	if !ok {
		return gaa.CondMaybe
	}
	return selector(holds) | t.class
}

// CompileCond implements gaa.CondCompiler.
func (e cmpEvaluator) CompileCond(cond eacl.Condition) (gaa.CompiledCond, bool) {
	t, err := parseCmp(cond.Value, cond.DefAuth)
	if e.class == gaa.ClassRequirement {
		t.class = gaa.CondRequirement
	}
	return hoisted(t, err)
}

func (e cmpEvaluator) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	t, err := parseCmp(cond.Value, cond.DefAuth)
	if err != nil {
		return malformed(err)
	}
	got, holds, ok := t.compare(req)
	if !ok {
		return gaa.UnevaluatedOutcome(e.noParam + t.param)
	}
	// Formatted details are trace-only decoration; skip the Sprintf
	// entirely on the untraced hot path.
	result, detail, format := gaa.No, e.fails, e.failFmt
	if holds {
		result, detail, format = gaa.Yes, e.holds, e.holdsFmt
	}
	if req.Trace {
		detail = fmt.Sprintf(format, t.param, got, t.op, t.bound)
	}
	return gaa.Outcome{Result: result, Class: e.class, Detail: detail}
}
