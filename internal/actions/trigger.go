// Package actions provides the side-effecting GAA-API condition
// evaluators used in request-result and post-condition blocks: email
// notification, audit records, dynamic blacklist updates, threat-level
// escalation, firewall blocks and threshold counters. Values follow the
// paper's trigger syntax:
//
//	rr_cond_notify     local on:failure/sysadmin/info:cgiexploit
//	rr_cond_update_log local on:failure/BadGuys/info:IP
//
// "on:failure" fires when the authorization request was denied (or, in
// a post-condition block, when the operation failed); "on:success" when
// it was granted (succeeded); "on:any" always (paper section 5: the
// routines "can be activated whether the request succeeds/fails ... or
// whether the requested operation succeeds/fails").
package actions

import (
	"fmt"
	"strings"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// trigger is the on: filter of an action condition.
type trigger int

const (
	onAny trigger = iota + 1
	onSuccess
	onFailure
)

// args is an action value's slash-separated arguments, read in place:
// splitting them allocates nothing. Empty segments, as in "on:any/",
// are skipped.
type args string

// next returns the first argument and the ones after it; arg is empty
// when none is left.
func (a args) next() (arg string, rest args) {
	for a != "" {
		head, tail, _ := strings.Cut(string(a), "/")
		if a = args(tail); head != "" {
			return head, a
		}
	}
	return "", ""
}

// info returns the tag of the last "info:<tag>" argument.
func (a args) info() (tag string) {
	for arg, rest := a.next(); arg != ""; arg, rest = rest.next() {
		if v, ok := strings.CutPrefix(arg, "info:"); ok {
			tag = v
		}
	}
	return tag
}

// positional returns the first argument that is not "info:<tag>" and
// the arguments after it.
func (a args) positional() (string, args) {
	for arg, rest := a.next(); arg != ""; arg, rest = rest.next() {
		if !strings.HasPrefix(arg, "info:") {
			return arg, rest
		}
	}
	return "", ""
}

// parseTrigger reads the on: prefix of an action value: its trigger
// and the arguments after it. A value without one is on:any. It is
// the one reading of the trigger grammar, per call (parseValue) and at
// policy compile time (CompileTrigger).
func parseTrigger(value string) (trigger, args, error) {
	head, tail, _ := strings.Cut(value, "/")
	if !strings.HasPrefix(head, "on:") {
		return onAny, args(value), nil
	}
	switch strings.TrimPrefix(head, "on:") {
	case "any":
		return onAny, args(tail), nil
	case "success":
		return onSuccess, args(tail), nil
	case "failure":
		return onFailure, args(tail), nil
	default:
		return 0, "", fmt.Errorf("unknown trigger %q", head)
	}
}

// parseValue reads an action value "on:failure/arg1/arg2": whether its
// trigger fires for the phase status in req, and the remaining
// arguments.
func parseValue(cond eacl.Condition, req *gaa.Request) (a args, fires bool, err error) {
	trig, rest, err := parseTrigger(cond.Value)
	if err != nil {
		return "", false, err
	}
	status := req.Decision
	if cond.Block == eacl.BlockPost {
		status = req.OpStatus
	}
	if !trig.fires(status) {
		return "", false, nil
	}
	return rest, true, nil
}

// fires reports whether the trigger matches the phase status: the
// authorization decision for request-result conditions, the operation
// status for post-conditions.
func (t trigger) fires(status gaa.Decision) bool {
	switch t {
	case onSuccess:
		return status == gaa.Yes
	case onFailure:
		// MAYBE (uncertain) is neither a grant nor a denial: it fires
		// neither on:success nor on:failure.
		return status == gaa.No
	default:
		return true
	}
}

// triggered is a built-in action as Builtin returns it, with whether
// its service is configured (one that is not answers MAYBE whatever the
// status).
type triggered struct {
	gaa.Evaluator
	configured bool
}

// CompileTrigger implements gaa.TriggerCompiler: a configured action's
// trigger, read once, when its value names a known one.
func (t triggered) CompileTrigger(cond eacl.Condition) func(gaa.Decision) bool {
	if trig, _, err := parseTrigger(cond.Value); t.configured && err == nil {
		return trig.fires
	}
	return nil
}

// skipped is the outcome of an action whose trigger did not match.
func skipped() gaa.Outcome {
	return gaa.MetOutcome(gaa.ClassAction, "trigger not matched")
}

// badValue is the outcome for a malformed action value: unevaluable,
// never a grant or deny.
func badValue(err error) gaa.Outcome {
	return gaa.Outcome{Result: gaa.Maybe, Unevaluated: true, Class: gaa.ClassAction, Err: err}
}

// met is the outcome of an action that did its work. The detail is
// built only for a traced request: only the specification's trace of
// one reads it.
func met(req *gaa.Request, detail func() string) gaa.Outcome {
	if !req.Trace {
		return gaa.MetOutcome(gaa.ClassAction, "")
	}
	return gaa.MetOutcome(gaa.ClassAction, detail())
}
