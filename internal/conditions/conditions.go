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
// ValidateValue returns the parse's error, CompileCond (gaa.CondCompiler)
// returns the test for the compiled engine to run as a one-word verdict,
// and Evaluate runs that same test and words its result as an Outcome
// detail. Parse comes first in all three, so a malformed value is
// malformed for every request: MAYBE with the validator's error.
//
// Not hoisted (deliberately): signature (shared mutable DB), threshold
// (stateful counters), quota (mid-phase), file_sha256 (filesystem), and
// anything a deployment registers itself.
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

// Builtin returns the built-in evaluator registered under name — the
// same names the GAA configuration files use (package config, the
// paper's "configuration files list routines ... for evaluating
// conditions specified in the policy files").
func Builtin(name string, deps Deps) (gaa.Evaluator, bool) {
	switch name {
	case "accessid_USER":
		return userEvaluator{}, true
	case "accessid_GROUP":
		return groupEvaluator{store: deps.Groups}, true
	case "accessid_HOST":
		return hostEvaluator{}, true
	case "system_threat_level":
		return threatEvaluator{provider: deps.Threat}, true
	case "time_window":
		return timeWindowEvaluator{}, true
	case "location":
		return locationEvaluator{}, true
	case "regex":
		return regexEvaluator{}, true
	case "signature":
		return signatureEvaluator{db: deps.Signatures}, true
	case "expr":
		return exprEvaluator, true
	case "threshold":
		return thresholdEvaluator{counters: deps.Counters}, true
	case "redirect":
		return redirectEvaluator{}, true
	case "quota":
		return quotaEvaluator, true
	case "file_sha256":
		return fileSHA256Evaluator{}, true
	default:
		return nil, false
	}
}

// Names lists the built-in condition evaluator names.
func Names() []string {
	return []string{
		"accessid_USER", "accessid_GROUP", "accessid_HOST",
		"system_threat_level", "time_window", "location",
		"regex", "signature", "expr", "threshold", "redirect",
		"quota", "file_sha256",
	}
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
// whatever the request: unevaluated, carrying the error ValidateValue
// reports for the same value.
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
