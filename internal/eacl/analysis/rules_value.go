package analysis

import (
	"fmt"
	"slices"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// Layer 1: value-level semantic validation. Each rule reads the error
// of the evaluator's own parse (conditions.AtomsOf), so the analyzer
// accepts exactly what the runtime evaluators accept. A value rejected
// here would evaluate to MAYBE on every request at run time — on a pos
// entry that silently withholds a grant, on a neg entry it silently
// disables a denial, and in both cases the decision degrades to the web
// server's fallback. Values carrying '@' runtime references are
// skipped: their final shape is supplied by the IDS at evaluation time.

var (
	metaRegexSyntax = Meta{
		Code: "E001", Name: "regex-syntax", Severity: SeverityError,
		Summary: "a \"re:\" pattern in a pre_cond_regex value does not compile",
		Fix:     "fix the regular expression, or drop the re: prefix to match it as a '*'-glob",
	}
	metaLocationSyntax = Meta{
		Code: "E002", Name: "location-syntax", Severity: SeverityError,
		Summary: "a pre_cond_location pattern containing '/' does not parse as a CIDR range",
		Fix:     "use a valid CIDR (e.g. 128.9.0.0/16) or an address glob (e.g. 128.9.*)",
	}
	metaTimeWindowSyntax = Meta{
		Code: "E003", Name: "timewindow-syntax", Severity: SeverityError,
		Summary: "a pre_cond_time_window value is not \"HH:MM-HH:MM [days]\"",
		Fix:     "write 24-hour times (09:00-17:00) and day names as Mon-Fri or Mon,Wed,Sat",
	}
	metaTimeWindowEmpty = Meta{
		Code: "E004", Name: "timewindow-empty", Severity: SeverityError,
		Summary: "a time window contains no instant (start equals end), so the condition never holds",
		Fix:     "widen the window; windows wrapping midnight (22:00-06:00) are legal and non-empty",
	}
	metaThresholdSyntax = Meta{
		Code: "E005", Name: "threshold-syntax", Severity: SeverityError,
		Summary: "a pre_cond_threshold value is malformed (needs counter=, key=, positive max= and window=)",
		Fix:     "supply all four fields: counter=failed_login key=client_ip max=5 window=60s",
	}
	metaExprSyntax = Meta{
		Code: "E006", Name: "expr-syntax", Severity: SeverityError,
		Summary: "an expr/quota comparison is malformed (needs <param><op><integer>)",
		Fix:     "write a parameter name, one comparator and an integer bound: input_length>1000",
	}
	metaThreatSyntax = Meta{
		Code: "E007", Name: "threat-syntax", Severity: SeverityError,
		Summary: "a system_threat_level comparison is malformed (want =low, >low, <=medium, ...)",
		Fix:     "compare against low, medium or high with a leading comparator: =high",
	}
	metaSHA256Syntax = Meta{
		Code: "E008", Name: "sha256-syntax", Severity: SeverityError,
		Summary: "a file_sha256 value is not \"<path> <64 hex digits>\"",
		Fix:     "pin the digest with `eaclint -hash <path>` and paste its output",
	}
)

// valueRule reports each condition of its types whose value check
// fails, by default the evaluator's own parse (conditions.AtomsOf).
type valueRule struct {
	meta  Meta
	types []string
	check func(c eacl.Condition) error
}

// valueRules is layer 1, in code order.
var valueRules = []valueRule{
	{metaRegexSyntax, []string{"regex"}, nil},
	{metaLocationSyntax, []string{"location"}, nil},
	{metaTimeWindowSyntax, []string{"time_window"}, nil},
	{metaTimeWindowEmpty, []string{"time_window"}, emptyWindow},
	{metaThresholdSyntax, []string{"threshold"}, nil},
	{metaExprSyntax, []string{"expr", "quota"}, nil},
	{metaThreatSyntax, []string{"system_threat_level"}, nil},
	{metaSHA256Syntax, []string{"file_sha256"}, nil},
}

func (v valueRule) Meta() Meta { return v.meta }

func (v valueRule) CheckFile(f *File, r *Reporter) {
	eachCondition(f.EACL, func(c *eacl.Condition) {
		if err := v.fault(*c); err != nil {
			r.Report(f.EACL.Source, c.Line, "%v", err)
		}
	})
}

// fault is the check's error on c, nil when c is not of the rule's types.
func (v valueRule) fault(c eacl.Condition) error {
	if !slices.Contains(v.types, c.Type) || gaa.HasValueRef(c.Value) {
		return nil
	} else if v.check != nil {
		return v.check(c)
	} else if _, err := conditions.AtomsOf(c.Type, c.Value); err != nil {
		return fmt.Errorf("%s_%s value never evaluates: %v", c.Block, c.Type, err)
	}
	return nil
}

// emptyWindow (E004) rejects a window that parses but holds no instant;
// one that does not parse is E003's.
func emptyWindow(c eacl.Condition) error {
	if a, err := conditions.AtomsOf(c.Type, c.Value); err == nil && a.Window.Empty() {
		return fmt.Errorf("time window %q is empty: it contains no instant, so the condition never holds", c.Value)
	}
	return nil
}

// eachCondition visits every condition of every entry, in source order.
func eachCondition(e *eacl.EACL, fn func(c *eacl.Condition)) {
	for i := range e.Entries {
		for j := range e.Entries[i].Conditions {
			fn(&e.Entries[i].Conditions[j])
		}
	}
}
