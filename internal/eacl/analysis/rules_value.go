package analysis

import (
	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
)

// Layer 1: value-level semantic validation. Each rule re-uses the
// exported validators of internal/conditions, so the analyzer accepts
// exactly what the runtime evaluators accept. A value rejected here
// would evaluate to MAYBE on every request at run time — on a pos entry
// that silently withholds a grant, on a neg entry it silently disables
// a denial, and in both cases the decision degrades to the web server's
// fallback. Values carrying '@' runtime references are skipped: their
// final shape is supplied by the IDS at evaluation time.

var (
	metaRegexSyntax = Meta{
		Code: "E001", Name: "regex-syntax", Severity: SeverityError,
		Summary: "a \"re:\" pattern in a pre_cond_regex value does not compile",
		Example: "pre_cond_regex gnu re:[unclosed",
		Fix:     "fix the regular expression, or drop the re: prefix to match it as a '*'-glob",
	}
	metaLocationSyntax = Meta{
		Code: "E002", Name: "location-syntax", Severity: SeverityError,
		Summary: "a pre_cond_location pattern containing '/' does not parse as a CIDR range",
		Example: "pre_cond_location local 300.0.0.0/8",
		Fix:     "use a valid CIDR (e.g. 128.9.0.0/16) or an address glob (e.g. 128.9.*)",
	}
	metaTimeWindowSyntax = Meta{
		Code: "E003", Name: "timewindow-syntax", Severity: SeverityError,
		Summary: "a pre_cond_time_window value is not \"HH:MM-HH:MM [days]\"",
		Example: "pre_cond_time_window local 9am-5pm",
		Fix:     "write 24-hour times (09:00-17:00) and day names as Mon-Fri or Mon,Wed,Sat",
	}
	metaTimeWindowEmpty = Meta{
		Code: "E004", Name: "timewindow-empty", Severity: SeverityError,
		Summary: "a time window contains no instant (start equals end), so the condition never holds",
		Example: "pre_cond_time_window local 09:00-09:00",
		Fix:     "widen the window; windows wrapping midnight (22:00-06:00) are legal and non-empty",
	}
	metaThresholdSyntax = Meta{
		Code: "E005", Name: "threshold-syntax", Severity: SeverityError,
		Summary: "a pre_cond_threshold value is malformed (needs counter=, key=, positive max= and window=)",
		Example: "pre_cond_threshold local counter=failed_login max=0 window=60s",
		Fix:     "supply all four fields: counter=failed_login key=client_ip max=5 window=60s",
	}
	metaExprSyntax = Meta{
		Code: "E006", Name: "expr-syntax", Severity: SeverityError,
		Summary: "an expr/quota comparison is malformed (needs <param><op><integer>)",
		Example: "pre_cond_expr local input_length>>1000",
		Fix:     "write a parameter name, one comparator and an integer bound: input_length>1000",
	}
	metaThreatSyntax = Meta{
		Code: "E007", Name: "threat-syntax", Severity: SeverityError,
		Summary: "a system_threat_level comparison is malformed (want =low, >low, <=medium, ...)",
		Example: "pre_cond_system_threat_level local =severe",
		Fix:     "compare against low, medium or high with a leading comparator: =high",
	}
	metaSHA256Syntax = Meta{
		Code: "E008", Name: "sha256-syntax", Severity: SeverityError,
		Summary: "a file_sha256 value is not \"<path> <64 hex digits>\"",
		Example: "post_cond_file_sha256 local /etc/passwd deadbeef",
		Fix:     "pin the digest with `eaclint -hash <path>` and paste its output",
	}
)

// valueCheckRule validates condition values of the listed types with
// conditions.ValidateValue.
type valueCheckRule struct {
	meta  Meta
	types map[string]bool
}

func valueRule(meta Meta, types ...string) valueCheckRule {
	set := make(map[string]bool, len(types))
	for _, t := range types {
		set[t] = true
	}
	return valueCheckRule{meta: meta, types: set}
}

func (v valueCheckRule) Meta() Meta { return v.meta }

func (v valueCheckRule) CheckFile(f *File, r *Reporter) {
	eachCondition(f.EACL, func(c *eacl.Condition) {
		if !v.types[c.Type] {
			return
		}
		if err := conditions.ValidateValue(c.Type, c.Value); err != nil {
			r.Report(f.EACL.Source, c.Line, "%s_%s value never evaluates: %v", c.Block, c.Type, err)
		}
	})
}

// timeWindowEmptyRule (E004) flags windows that parse but can never
// contain an instant.
type timeWindowEmptyRule struct{}

func (timeWindowEmptyRule) Meta() Meta { return metaTimeWindowEmpty }

func (timeWindowEmptyRule) CheckFile(f *File, r *Reporter) {
	eachCondition(f.EACL, func(c *eacl.Condition) {
		if c.Type != "time_window" {
			return
		}
		w, err := conditions.ParseTimeWindowSpec(c.Value)
		if err != nil {
			return // E003's finding, or an '@' reference: no window to read
		}
		if w.Empty() {
			r.Report(f.EACL.Source, c.Line, "time window %q is empty: it contains no instant, so the condition never holds", c.Value)
		}
	})
}

// eachCondition visits every condition of every entry, in source order.
func eachCondition(e *eacl.EACL, fn func(c *eacl.Condition)) {
	for i := range e.Entries {
		for j := range e.Entries[i].Conditions {
			fn(&e.Entries[i].Conditions[j])
		}
	}
}
