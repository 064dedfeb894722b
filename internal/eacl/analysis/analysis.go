// Package analysis is the EACL static-analysis engine — the "automated
// tool to ensure policy correctness and consistency" the paper lists as
// future work in section 2. It layers three kinds of checks on top of
// the syntactic validation in package eacl:
//
//  1. value-level semantic validation: condition values that the
//     runtime evaluators would bounce to MAYBE (regexes that don't
//     compile, CIDRs that don't parse, empty time windows, malformed
//     threshold expressions, bad digests) are errors at lint time;
//  2. entry- and file-level structural checks: the grammar, the
//     registration vocabulary, and pos/neg conflicts over overlapping
//     rights;
//  3. the reasoning engine's facts (internal/eacl/reason), each
//     presented once: dead entries by cause (unsatisfiable, duplicate,
//     shadowed, dead under "stop"), mandatory-bypass risks under
//     "expand", grants that can never be satisfied under "narrow", and
//     anonymous grants of authenticated rights.
//
// Every rule carries a stable diagnostic code (E0xx for errors, W0xx
// for warnings) so findings can be filtered, suppressed, and exported
// to SARIF for code-scanning pipelines. cmd/eaclint is the command-line
// driver.
package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"gaaapi/internal/eacl"
)

// Severity classifies a diagnostic.
type Severity int

const (
	// SeverityWarning marks suspicious but legal policies.
	SeverityWarning Severity = iota + 1
	// SeverityError marks policies that cannot behave as written.
	SeverityError
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// ParseSeverity converts "warning" or "error".
func ParseSeverity(s string) (Severity, error) {
	switch strings.ToLower(s) {
	case "warning":
		return SeverityWarning, nil
	case "error":
		return SeverityError, nil
	default:
		return 0, fmt.Errorf("unknown severity %q (want warning or error)", s)
	}
}

// Meta describes a rule: its stable code, human name, severity, and the
// catalog documentation rendered into docs/EACL.md.
type Meta struct {
	// Code is the stable diagnostic code ("E001", "W003").
	Code string
	// Name is the short kebab-case rule name ("regex-syntax").
	Name string
	// Severity is the rule's fixed severity.
	Severity Severity
	// Summary is a one-line description of what the rule detects.
	Summary string
	// Fix describes how a policy officer repairs the finding.
	Fix string
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Code and Rule identify the rule that fired.
	Code string `json:"code"`
	Rule string `json:"rule"`
	// Severity is the rule severity ("warning" or "error" in JSON).
	Severity Severity `json:"-"`
	// File is the EACL source (eacl.EACL.Source) the finding is in.
	File string `json:"file"`
	// Line is the 1-based source line, 0 when the finding concerns the
	// file as a whole.
	Line int `json:"line"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
}

// String renders "file:line: severity: message [code]".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s [%s]", d.File, d.Line, d.Severity, d.Message, d.Code)
}

// Rule is one analysis check. Concrete rules also implement FileRule,
// CompositionRule, or both; the analyzer dispatches on those.
type Rule interface {
	// Meta returns the rule's catalog entry.
	Meta() Meta
}

// File is the unit of single-policy analysis: a parsed EACL plus the
// registration vocabulary findings are checked against.
type File struct {
	EACL *eacl.EACL
	// Known reports whether an evaluator is registered for (condType,
	// defAuth); nil disables registration-dependent rules (W001, W005).
	Known func(condType, defAuth string) bool

	proved bool
	found  []finding // the prover's findings, once proved
}

// FileRule checks one policy file in isolation.
type FileRule interface {
	Rule
	CheckFile(f *File, r *Reporter)
}

// CompositionRule checks a composed system + local policy set.
type CompositionRule interface {
	Rule
	CheckComposition(c *Composition, r *Reporter)
}

// Reporter collects diagnostics for the rule currently running.
type Reporter struct {
	meta  Meta
	diags *[]Diagnostic
}

// Report records a finding at file:line.
func (r *Reporter) Report(file string, line int, format string, args ...any) {
	*r.diags = append(*r.diags, Diagnostic{
		Code:     r.meta.Code,
		Rule:     r.meta.Name,
		Severity: r.meta.Severity,
		File:     file,
		Line:     line,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer runs a configured set of rules.
type Analyzer struct {
	rules       []Rule
	disabled    map[string]bool
	only        map[string]bool
	minSeverity Severity
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithRuleFilter parses a comma-separated rule selection: bare codes or
// names select exactly those rules; items prefixed with '-' disable
// rules. "W003,E001" enables only those two; "-W002" runs everything
// but W002. Unknown codes are an error.
func WithRuleFilter(spec string) (Option, error) {
	only := map[string]bool{}
	disabled := map[string]bool{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		neg := strings.HasPrefix(item, "-")
		key := strings.TrimPrefix(item, "-")
		m, ok := lookupRule(key)
		if !ok {
			return nil, fmt.Errorf("unknown rule %q", key)
		}
		if neg {
			disabled[m.Code] = true
		} else {
			only[m.Code] = true
		}
	}
	return func(a *Analyzer) {
		for c := range disabled {
			a.disabled[c] = true
		}
		if len(only) > 0 {
			a.only = only
		}
	}, nil
}

// WithMinSeverity drops findings below the given severity.
func WithMinSeverity(s Severity) Option {
	return func(a *Analyzer) { a.minSeverity = s }
}

// New returns an analyzer running the full rule catalog, narrowed by
// the given options.
func New(opts ...Option) *Analyzer {
	a := &Analyzer{
		rules:       allRules(),
		disabled:    map[string]bool{},
		minSeverity: SeverityWarning,
	}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// enabled reports whether the rule participates in this run.
func (a *Analyzer) enabled(m Meta) bool {
	if a.disabled[m.Code] {
		return false
	}
	if a.only != nil && !a.only[m.Code] {
		return false
	}
	return m.Severity >= a.minSeverity
}

// AnalyzeFile runs every enabled file-scope rule over one policy.
func (a *Analyzer) AnalyzeFile(f *File) []Diagnostic {
	return run(a, func(r FileRule, rep *Reporter) { r.CheckFile(f, rep) })
}

// AnalyzeComposition runs every enabled composition-scope rule over a
// composed policy set. Per-file findings are not repeated here; run
// AnalyzeFile on each member for those.
func (a *Analyzer) AnalyzeComposition(c *Composition) []Diagnostic {
	return run(a, func(r CompositionRule, rep *Reporter) { r.CheckComposition(c, rep) })
}

// run checks every enabled rule of kind R, in catalog order, and sorts
// the findings.
func run[R Rule](a *Analyzer, check func(R, *Reporter)) []Diagnostic {
	var out []Diagnostic
	for _, rule := range a.rules {
		if r, ok := rule.(R); ok && a.enabled(rule.Meta()) {
			check(r, &Reporter{meta: rule.Meta(), diags: &out})
		}
	}
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders findings for stable output: by file, then
// line, then code.
func sortDiagnostics(ds []Diagnostic) {
	slices.SortStableFunc(ds, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), strings.Compare(a.Code, b.Code))
	})
}

// Catalog returns the metadata of every rule, sorted by code — the
// source for docs/EACL.md's rule table and the SARIF rule array.
func Catalog() []Meta {
	rules := allRules()
	out := make([]Meta, len(rules))
	for i, r := range rules {
		out[i] = r.Meta()
	}
	slices.SortFunc(out, func(a, b Meta) int { return strings.Compare(a.Code, b.Code) })
	return out
}

// lookupRule finds a rule's meta by code ("E001") or name
// ("regex-syntax").
func lookupRule(key string) (Meta, bool) {
	for _, m := range Catalog() {
		if strings.EqualFold(key, m.Code) || strings.EqualFold(key, m.Name) {
			return m, true
		}
	}
	return Meta{}, false
}

// allRules instantiates the full rule set, value layer first, then
// flow, then the prover's presentations — report order within a line
// follows code order anyway, so this order only decides tie-breaking
// work.
func allRules() []Rule {
	var rules []Rule
	for _, v := range valueRules { // Layer 1: value-level semantic validation (E001–E008).
		rules = append(rules, v)
	}
	return append(rules,
		// Layer 2: structural checks (E010, W001, W004–W006).
		negBlockRule{},
		unknownConditionRule{},
		posNegConflictRule{},
		maybeOnlyEntryRule{},
		emptyEACLRule{},
		// Layers 3 and 4: the prover's facts (E011–E013, E020, W002,
		// W003, W007, W020–W023).
		proverRule{meta: metaTimeContradiction, file: true},
		proverRule{meta: metaThreatContradiction, file: true},
		proverRule{meta: metaUnsatisfiableEntry, file: true},
		proverRule{meta: metaDuplicateEntry, file: true},
		proverRule{meta: metaUnreachableEntry, file: true},
		proverRule{meta: metaSubsumedEntry, file: true},
		proverRule{meta: metaStopDeadLocal, compose: true},
		proverRule{meta: metaExpandBypass, compose: true},
		proverRule{meta: metaNarrowDeadGrant, compose: true},
		proverRule{meta: metaProverDeadEntry, file: true, compose: true},
		proverRule{meta: metaProverAnonGrant, compose: true},
	)
}
