// Package conditions provides the built-in GAA-API condition
// evaluators used by the paper's policies: access identity (USER /
// GROUP / HOST), time windows, network location, the IDS-supplied
// system threat level, glob/regex attack signatures, numeric parameter
// expressions, sliding-window thresholds, adaptive redirection, and the
// execution-phase quota and file-integrity conditions.
//
// Evaluators are pure policy: side-effecting response actions (notify,
// blacklist update, audit) live in package actions.
//
// Every condition type with a value language has one unexported parse
// function returning the value's test, and three presentations of it:
// CompileCond (gaa.CondCompiler) returns the test for the compiled
// engine to run as a one-word verdict, Evaluate runs that same test and
// words its result as an Outcome detail, and AtomsOf returns the cells
// the test cuts its request axis into, for the static reasoner
// (internal/eacl/reason), beside the parse's error, which the analyzer
// (internal/eacl/analysis) reports as E001–E008. Parse comes first in
// all three, so a malformed value is malformed for every request: MAYBE
// with AtomsOf's error.
//
// Not hoisted (deliberately): signature (shared mutable DB), threshold
// (stateful counters), file_sha256 (filesystem), and anything a
// deployment registers itself.
package conditions

import (
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
)

// Deps carries the substrate services the built-in evaluators consult.
// Nil fields disable the corresponding evaluators (they evaluate to
// MAYBE, exactly as an unregistered routine would).
type Deps struct {
	// Threat supplies the current system threat level
	// (pre_cond_system_threat_level).
	Threat ids.LevelProvider
	// Groups backs pre_cond_accessid_GROUP membership checks.
	Groups *groups.Store
	// Counters backs pre_cond_threshold sliding-window checks.
	Counters *Counters
	// Signatures backs pre_cond_signature database lookups.
	Signatures *ids.DB
}

// builtins is the built-in vocabulary, in registration order: each
// routine name the GAA configuration files use (package config, the
// paper's "configuration files list routines ... for evaluating
// conditions specified in the policy files") beside the evaluator it
// stands for over deps. It is an array, so the slice Names makes has a
// constant length and stays on the stack of a caller that ranges it.
var builtins = [...]struct {
	name  string
	build func(deps Deps) gaa.Evaluator
}{
	{"accessid_USER", func(Deps) gaa.Evaluator { return userEvaluator{} }},
	{"accessid_GROUP", func(d Deps) gaa.Evaluator { return groupEvaluator{store: d.Groups} }},
	{"accessid_HOST", func(Deps) gaa.Evaluator { return hostEvaluator{} }},
	{"system_threat_level", func(d Deps) gaa.Evaluator { return threatEvaluator{provider: d.Threat} }},
	{"time_window", func(Deps) gaa.Evaluator { return timeWindowEvaluator{} }},
	{"location", func(Deps) gaa.Evaluator { return locationEvaluator{} }},
	{"regex", func(Deps) gaa.Evaluator { return regexEvaluator{} }},
	{"signature", func(d Deps) gaa.Evaluator { return signatureEvaluator{db: d.Signatures} }},
	{"expr", func(Deps) gaa.Evaluator { return exprEvaluator }},
	{"threshold", func(d Deps) gaa.Evaluator { return thresholdEvaluator{counters: d.Counters} }},
	{"redirect", func(Deps) gaa.Evaluator { return redirectEvaluator{} }},
	{"quota", func(Deps) gaa.Evaluator { return quotaEvaluator }},
	{"file_sha256", func(Deps) gaa.Evaluator { return fileSHA256Evaluator{} }},
}

// Builtin returns the built-in evaluator registered under name.
func Builtin(name string, deps Deps) (gaa.Evaluator, bool) {
	for _, b := range builtins {
		if b.name == name {
			return b.build(deps), true
		}
	}
	return nil, false
}

// Names lists the built-in condition evaluator names.
func Names() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return names
}

// Register installs every built-in evaluator on api under its own name.
// Evaluators are registered for the wildcard authority; pre_cond_regex
// is additionally registered under the paper's "gnu" authority.
func Register(api *gaa.API, deps Deps) {
	for _, name := range Names() {
		ev, _ := Builtin(name, deps)
		api.Register(name, gaa.AuthorityAny, ev)
	}
	api.Register("regex", "gnu", regexEvaluator{})
}

// malformed is the outcome of a condition whose value does not parse,
// whatever the request: unevaluated, carrying the error AtomsOf reports
// for the same value.
func malformed(err error) gaa.Outcome {
	return gaa.Outcome{Result: gaa.Maybe, Unevaluated: true, Err: err}
}

// hoisted hands a parsed test to the compiled engine, refusing (the
// condition stays dynamic and Evaluate answers malformed per request)
// exactly when the value did not parse.
func hoisted[T gaa.CompiledCond](test T, err error) (gaa.CompiledCond, bool) {
	if err != nil {
		return nil, false
	}
	return test, true
}

// selector is the verdict of a selector test.
func selector(met bool) gaa.CondVerdict {
	if met {
		return gaa.CondYes
	}
	return gaa.CondNo
}
