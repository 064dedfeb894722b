package gaa

import (
	"fmt"
	"strings"

	"gaaapi/internal/eacl"
)

// TraceEvent records one step of policy evaluation, for audit logs and
// for explaining decisions (cmd/eaclint --explain).
type TraceEvent struct {
	// Source is the EACL source (file name) the event belongs to.
	Source string
	// EntryLine is the source line of the entry under evaluation.
	EntryLine int
	// Cond is the condition evaluated; zero-valued for entry-level
	// events ("entry fired", "entry inapplicable").
	Cond eacl.Condition
	// Outcome of the condition, when Cond is set.
	Outcome Outcome
	// Note is a human-readable description of the step.
	Note string
}

// String renders the trace event for logs.
func (t TraceEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%d", t.Source, t.EntryLine)
	if t.Cond.Type != "" {
		fmt.Fprintf(&b, " [%s]", t.Cond)
		fmt.Fprintf(&b, " -> %s", t.Outcome.Result)
		if t.Outcome.Detail != "" {
			fmt.Fprintf(&b, " (%s)", t.Outcome.Detail)
		}
		if t.Outcome.Err != nil {
			fmt.Fprintf(&b, " err=%v", t.Outcome.Err)
		}
	}
	if t.Note != "" {
		fmt.Fprintf(&b, " %s", t.Note)
	}
	return b.String()
}

// Answer is the result of CheckAuthorization: the paper's authorization
// status plus everything the later phases need.
type Answer struct {
	// Decision is the authorization status: Yes (authorized), No (not
	// authorized) or Maybe (uncertain).
	Decision Decision
	// Applicable reports whether any policy entry applied. When false,
	// Decision is Maybe and the caller should fall back to its native
	// access control (HTTP_DECLINED in the paper's translation).
	Applicable bool
	// Unevaluated lists the conditions left unevaluated when Decision
	// is Maybe (e.g. a pre_cond_redirect carrying the target URL).
	Unevaluated []eacl.Condition
	// Challenge, when non-empty, tells the application the requester
	// may satisfy the policy by authenticating (HTTP_AUTHREQUIRED).
	Challenge string
	// Mid and Post list the mid- and post-conditions of the entries
	// that decided. ExecutionControl and PostExecutionActions run them
	// in the compiled form CheckAuthorization keeps beside them.
	Mid, Post []eacl.Condition
	// later are the deciding entries with mid or post blocks, of units
	// compiled at registry generation gen.
	later []*compiledEntry
	gen   uint64
	// Trace is the full evaluation trace of a traced request when
	// SpecCheck wrote the answer. The compiled engine traces degraded
	// evaluations (see Faults) alone, traced request or not.
	Trace []TraceEvent
	// Faults lists the condition evaluations the supervision layer
	// degraded to MAYBE (panic, timeout, error, invalid decision)
	// while producing this answer, each with a structured reason.
	// Empty in healthy operation.
	Faults []Fault
}

// UnevaluatedOnly returns the single unevaluated condition of the given
// type if it is the only unevaluated condition, as the paper's Apache
// integration does for pre_cond_redirect ("checks whether there is only
// one unevaluated condition of the type pre_cond_redirect").
func (a *Answer) UnevaluatedOnly(condType string) (eacl.Condition, bool) {
	if len(a.Unevaluated) != 1 || a.Unevaluated[0].Type != condType {
		return eacl.Condition{}, false
	}
	return a.Unevaluated[0], true
}
