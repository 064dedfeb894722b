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

// parseValue reads an action value "on:failure/arg1/arg2": whether its
// trigger fires for the phase status in req and, only when it does, the
// remaining slash-separated arguments — an action that stays quiet
// splits nothing. A value without an on: prefix defaults to on:any.
func parseValue(cond eacl.Condition, req *gaa.Request) (args []string, fires bool, err error) {
	rest := cond.Value
	trig := onAny
	if head, tail, _ := strings.Cut(rest, "/"); strings.HasPrefix(head, "on:") {
		switch strings.TrimPrefix(head, "on:") {
		case "any":
			trig = onAny
		case "success":
			trig = onSuccess
		case "failure":
			trig = onFailure
		default:
			return nil, false, fmt.Errorf("unknown trigger %q", head)
		}
		rest = tail
	}
	if !trig.fires(cond, req) {
		return nil, false, nil
	}
	// Drop empty segments from values like "on:any/".
	parts := strings.Split(rest, "/")
	args = parts[:0]
	for _, p := range parts {
		if p != "" {
			args = append(args, p)
		}
	}
	return args, true, nil
}

// fires reports whether the trigger matches the phase status: the
// authorization decision for request-result conditions, the operation
// status for post-conditions.
func (t trigger) fires(cond eacl.Condition, req *gaa.Request) bool {
	status := req.Decision
	if cond.Block == eacl.BlockPost {
		status = req.OpStatus
	}
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

// skipped is the outcome of an action whose trigger did not match.
func skipped() gaa.Outcome {
	return gaa.MetOutcome(gaa.ClassAction, "trigger not matched")
}

// badValue is the outcome for a malformed action value: unevaluable,
// never a grant or deny.
func badValue(err error) gaa.Outcome {
	return gaa.Outcome{Result: gaa.Maybe, Unevaluated: true, Class: gaa.ClassAction, Err: err}
}

// infoTag extracts "info:<tag>" from the argument list, returning the
// tag and the remaining arguments.
func infoTag(args []string) (string, []string) {
	var (
		tag  string
		rest []string
	)
	for _, a := range args {
		if v, ok := strings.CutPrefix(a, "info:"); ok {
			tag = v
			continue
		}
		rest = append(rest, a)
	}
	return tag, rest
}
