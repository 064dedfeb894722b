package analysis

import (
	"fmt"
	"strings"
	"testing"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/eacl/reason"
	"gaaapi/internal/gaa"
)

func mustParse(t testing.TB, src string) *eacl.EACL {
	t.Helper()
	e, err := eacl.ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return e
}

// lintKnown is eaclint's default vocabulary: the built-in conditions
// and the stubbed built-in actions.
func lintKnown() func(condType, defAuth string) bool {
	api := gaa.New()
	reason.RegisterVocabulary(api, conditions.Deps{})
	return api.Known
}

// analyze runs the full catalog with the built-in vocabulary.
func analyze(t *testing.T, src string) []Diagnostic {
	t.Helper()
	return New().AnalyzeFile(&File{EACL: mustParse(t, src), Known: lintKnown()})
}

// codes extracts the diagnostic codes in order.
func codes(ds []Diagnostic) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Code)
	}
	return out
}

func hasCode(ds []Diagnostic, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestCleanPolicyNoFindings(t *testing.T) {
	ds := analyze(t, `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* re:^GET\s
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
pos_access_right apache *
pre_cond_time_window local 09:00-17:00 Mon-Fri
mid_cond_quota local cpu_ms<=100
post_cond_file_sha256 local /etc/passwd ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad
`)
	if len(ds) != 0 {
		t.Errorf("findings on clean policy: %v", ds)
	}
}

func TestValueRules(t *testing.T) {
	tests := []struct {
		name, src, code string
	}{
		{"bad regex", "neg_access_right apache *\npre_cond_regex gnu re:[unclosed", "E001"},
		{"bad cidr", "pos_access_right apache *\npre_cond_location local 300.0.0.0/8", "E002"},
		{"bad window", "pos_access_right apache *\npre_cond_time_window local 9am-5pm", "E003"},
		{"empty window", "pos_access_right apache *\npre_cond_time_window local 09:00-09:00", "E004"},
		{"bad threshold", "neg_access_right apache *\npre_cond_threshold local counter=x key=ip max=0 window=60s", "E005"},
		{"bad expr", "neg_access_right apache *\npre_cond_expr local input_length>ten", "E006"},
		{"bad quota", "pos_access_right apache *\nmid_cond_quota local cpu_ms", "E006"},
		{"bad threat", "neg_access_right apache *\npre_cond_system_threat_level local =severe", "E007"},
		{"bad sha256", "pos_access_right apache *\npost_cond_file_sha256 local /etc/passwd deadbeef", "E008"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ds := analyze(t, tt.src)
			if !hasCode(ds, tt.code) {
				t.Errorf("want %s, got %v", tt.code, ds)
			}
			for _, d := range ds {
				if d.Code == tt.code && d.Severity != SeverityError {
					t.Errorf("%s severity = %v, want error", tt.code, d.Severity)
				}
			}
		})
	}
}

// TestUpperCaseDigestIsNotE008: the evaluator has always lower-cased
// the pinned digest before comparing; the analyzer reads the value with
// the evaluator's parse, so it no longer rejects what enforcement
// honours.
func TestUpperCaseDigestIsNotE008(t *testing.T) {
	ds := analyze(t, "pos_access_right apache *\npost_cond_file_sha256 local /etc/passwd "+
		"BA7816BF8F01CFEA414140DE5DAE2223B00361A396177A9CB410FF61F20015AD")
	if hasCode(ds, "E008") {
		t.Errorf("E008 on an upper-case digest: %v", ds)
	}
}

func TestValueRefSkipsValueRules(t *testing.T) {
	ds := analyze(t, `
neg_access_right apache *
pre_cond_expr local input_length>@max_input
pre_cond_time_window local @business_hours
`)
	for _, d := range ds {
		if strings.HasPrefix(d.Code, "E00") {
			t.Errorf("value rule fired on runtime reference: %v", d)
		}
	}
}

func TestNegBlockRule(t *testing.T) {
	ds := analyze(t, "neg_access_right apache *\nmid_cond_quota local cpu_ms<=10")
	if !hasCode(ds, "E010") {
		t.Errorf("want E010, got %v", ds)
	}
}

func TestTimeContradiction(t *testing.T) {
	ds := analyze(t, `
pos_access_right apache *
pre_cond_time_window local 09:00-12:00
pre_cond_time_window local 13:00-17:00
`)
	if !hasCode(ds, "E011") {
		t.Errorf("want E011, got %v", ds)
	}
	// Overlapping windows are fine.
	ds = analyze(t, `
pos_access_right apache *
pre_cond_time_window local 09:00-12:00
pre_cond_time_window local 11:00-17:00
`)
	if hasCode(ds, "E011") {
		t.Errorf("overlapping windows flagged: %v", ds)
	}
	// Disjoint windows on *different entries* are the normal disjoint-
	// policies idiom and must not be flagged.
	ds = analyze(t, `
pos_access_right apache *
pre_cond_time_window local 09:00-12:00
pos_access_right apache *
pre_cond_time_window local 13:00-17:00
`)
	if hasCode(ds, "E011") {
		t.Errorf("cross-entry windows flagged: %v", ds)
	}
}

func TestThreatContradiction(t *testing.T) {
	ds := analyze(t, `
pos_access_right apache *
pre_cond_system_threat_level local =high
pre_cond_system_threat_level local =low
`)
	if !hasCode(ds, "E012") {
		t.Errorf("want E012, got %v", ds)
	}
	// A single unsatisfiable comparison is also a contradiction.
	ds = analyze(t, "pos_access_right apache *\npre_cond_system_threat_level local <low")
	if !hasCode(ds, "E012") {
		t.Errorf("want E012 for <low, got %v", ds)
	}
	// Compatible conditions are fine.
	ds = analyze(t, `
pos_access_right apache *
pre_cond_system_threat_level local >low
pre_cond_system_threat_level local <=high
`)
	if hasCode(ds, "E012") {
		t.Errorf("satisfiable conjunction flagged: %v", ds)
	}
}

// TestUnsatisfiableEntry: the prover's per-entry query decides
// unsatisfiability; the finding names the conditions at fault, leaves a
// value-level defect to its own rule, and says "unknown" where the
// entry reads state outside the request.
// missingFile is a pre-condition on a file that is not there.
const missingFile = "pre_cond_file_sha256 local /nonexistent/blob " +
	"0000000000000000000000000000000000000000000000000000000000000000\n"

func TestUnsatisfiableEntry(t *testing.T) {
	tests := []struct {
		name, src string
		want      []string // "code:line"
		msg       string   // a substring of the last finding's message
	}{
		{"only the type at fault is named",
			"pos_access_right apache *\npre_cond_time_window local 09:00-17:00\n" +
				"pre_cond_location local 10.0.0.0/8\npre_cond_location local 192.168.0.0/16\n",
			[]string{"E013:1"}, `no request satisfies pre_cond_location "10.0.0.0/8" (line 3) and pre_cond_location "192.168.0.0/16" (line 4);`},
		{"a single condition", "pos_access_right apache *\npre_cond_system_threat_level local <low\n",
			[]string{"E012:2"}, `no request satisfies pre_cond_system_threat_level "<low" (line 2);`},
		// The empty window is E004's finding; without it the entry is
		// satisfiable, so nothing more.
		{"value defect", "pos_access_right apache *\npre_cond_time_window local 09:00-09:00\npre_cond_time_window local 13:00-17:00\n",
			[]string{"E004:2"}, "is empty"},
		// The bad CIDR is MAYBE; the threat levels contradict anyway.
		{"two defects", "pos_access_right apache *\npre_cond_location local 300.0.0.0/8\n" +
			"pre_cond_system_threat_level local =high\npre_cond_system_threat_level local =low\n",
			[]string{"E002:2", "E012:4"}, "the entry can never fire"},
		// The windows meet only on Wednesdays from 10:00.
		{"windows meeting on a shared day", "pos_access_right apache *\npre_cond_time_window local 09:00-17:00 Wed\n" +
			"pre_cond_time_window local 10:00-12:00\n",
			nil, ""},
		// The windows meet on Wednesdays from 10:00, where line 1 fires:
		// nothing is shadowed.
		{"satisfiable but missing from the file's grid", "pos_access_right apache *\npre_cond_time_window local 09:00-17:00 Wed\n" +
			"pre_cond_time_window local 10:00-12:00\nneg_access_right apache *\n",
			nil, ""},
		// Proved without the unsatisfiable entry, which decides no region.
		{"unsatisfiable entry left out of the grid", "neg_access_right apache *\npre_cond_expr local input_length>1000\n" +
			"pre_cond_expr local input_length<10\nneg_access_right apache GET /a\npos_access_right apache GET /b\n",
			[]string{"E013:1"}, "the entry can never fire"},
		// A missing file fails its hash check on every request, and a file
		// is not the request's: whether the entry fires is unknown.
		{"unknown", "neg_access_right apache *\n" + missingFile,
			[]string{"W022:1"}, "unknown whether this entry can fire: incomplete domain: pre_cond_file_sha256 reads state outside the request"},
		// The note stands in for any shadowing finding.
		{"unknown and shadowed", "neg_access_right apache *\nneg_access_right apache *\n" + missingFile,
			[]string{"W022:2"}, "unknown whether this entry can fire"},
		// Two lists on one axis are one language intersection.
		{"two glob lists", "neg_access_right apache *\npre_cond_regex gnu *cgi*\npre_cond_regex gnu *phf*\n", nil, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ds := analyze(t, tt.src)
			var got []string
			for _, d := range ds {
				got = append(got, fmt.Sprintf("%s:%d", d.Code, d.Line))
			}
			if strings.Join(got, ",") != strings.Join(tt.want, ",") ||
				len(ds) > 0 && !strings.Contains(ds[len(ds)-1].Message, tt.msg) {
				t.Errorf("findings = %v, want %v with %q", ds, tt.want, tt.msg)
			}
		})
	}
}

func TestUnknownAndMaybeOnly(t *testing.T) {
	ds := analyze(t, `
pos_access_right apache *
pre_cond_phase_of_moon local full
pre_cond_alignment local chaotic
`)
	if !hasCode(ds, "W001") {
		t.Errorf("want W001, got %v", ds)
	}
	if !hasCode(ds, "W005") {
		t.Errorf("want W005 (all pre-conditions unknown), got %v", ds)
	}
	// One known pre-condition keeps the entry decidable: W001 on the
	// stray condition, but no W005.
	ds = analyze(t, `
pos_access_right apache *
pre_cond_phase_of_moon local full
pre_cond_system_threat_level local =low
`)
	if !hasCode(ds, "W001") || hasCode(ds, "W005") {
		t.Errorf("want W001 without W005, got %v", ds)
	}
}

func TestDuplicateEntry(t *testing.T) {
	ds := analyze(t, `
pos_access_right apache GET /a
pre_cond_time_window local 09:00-17:00
pos_access_right apache GET /a
pre_cond_time_window local 09:00-17:00
`)
	if !hasCode(ds, "W002") {
		t.Errorf("want W002, got %v", ds)
	}
}

// "?*" and "?**" spell the same glob language ('?' is a literal byte,
// the extra '*' adds nothing), so the analyzer must flag them as
// duplicates even though the byte strings differ.
func TestDuplicateEntrySemanticGlobs(t *testing.T) {
	ds := analyze(t, `
pos_access_right apache GET /report?*
pre_cond_time_window local 09:00-17:00
pos_access_right apache GET /report?**
pre_cond_time_window local 09:00-17:00
`)
	if !hasCode(ds, "W002") {
		t.Errorf("want W002 for equivalent glob spellings, got %v", ds)
	}
}

func TestUnreachableGlobAware(t *testing.T) {
	ds := analyze(t, `
pos_access_right apache GET /cgi-bin/*
neg_access_right apache GET /cgi-bin/phf
pre_cond_regex gnu *phf*
`)
	if !hasCode(ds, "W003") {
		t.Errorf("want W003 (glob-aware shadow), got %v", ds)
	}
	ds = analyze(t, `
pos_access_right apache GET /static/*
neg_access_right apache GET /cgi-bin/phf
pre_cond_regex gnu *phf*
`)
	if hasCode(ds, "W003") {
		t.Errorf("disjoint rights flagged unreachable: %v", ds)
	}
}

func TestPosNegConflict(t *testing.T) {
	// Overlapping (but not covering) rights, no conditions on either.
	ds := analyze(t, `
pos_access_right apache GET /a*
neg_access_right apache GET *b
`)
	if !hasCode(ds, "W004") {
		t.Errorf("want W004, got %v", ds)
	}
	// A distinguishing pre-condition resolves the conflict.
	ds = analyze(t, `
pos_access_right apache GET /a*
neg_access_right apache GET *b
pre_cond_system_threat_level local =high
`)
	if hasCode(ds, "W004") {
		t.Errorf("guarded entries flagged: %v", ds)
	}
}

func TestSubsumedEntry(t *testing.T) {
	ds := analyze(t, `
pos_access_right apache *
pre_cond_accessid_USER apache *
pos_access_right apache GET /docs/*
pre_cond_accessid_USER apache *
pre_cond_time_window local 09:00-17:00
`)
	if !hasCode(ds, "W007") {
		t.Errorf("want W007, got %v", ds)
	}
	// Different sign is not subsumption (it is a potential conflict,
	// handled by other rules).
	ds = analyze(t, `
pos_access_right apache *
pre_cond_accessid_USER apache *
neg_access_right apache GET /docs/*
pre_cond_accessid_USER apache *
pre_cond_regex gnu *../*
`)
	if hasCode(ds, "W007") {
		t.Errorf("opposite signs flagged subsumed: %v", ds)
	}
}

func TestEmptyEACL(t *testing.T) {
	ds := analyze(t, "# only comments\n")
	if !hasCode(ds, "W006") {
		t.Errorf("want W006, got %v", ds)
	}
}

func TestRuleFilter(t *testing.T) {
	src := `
pos_access_right apache GET /cgi-bin/*
neg_access_right apache GET /cgi-bin/phf
pre_cond_regex gnu re:[unclosed
`
	// Only E001.
	opt, err := WithRuleFilter("E001")
	if err != nil {
		t.Fatal(err)
	}
	ds := New(opt).AnalyzeFile(&File{EACL: mustParse(t, src), Known: lintKnown()})
	if got := codes(ds); len(got) != 1 || got[0] != "E001" {
		t.Errorf("filtered codes = %v, want [E001]", got)
	}
	// Everything but W003, selected by name.
	opt, err = WithRuleFilter("-unreachable-entry")
	if err != nil {
		t.Fatal(err)
	}
	ds = New(opt).AnalyzeFile(&File{EACL: mustParse(t, src), Known: lintKnown()})
	if hasCode(ds, "W003") || !hasCode(ds, "E001") {
		t.Errorf("negative filter failed: %v", codes(ds))
	}
	// E013 is selected by code or name, and silenced by code.
	const unsat = "pos_access_right apache *\npre_cond_location local 10.0.0.0/8\npre_cond_location local 192.168.0.0/16\n"
	for spec, want := range map[string][]string{
		"unsatisfiable-entry": {"E013"},
		"E013":                {"E013"},
		"-E013":               nil,
	} {
		opt, err := WithRuleFilter(spec)
		if err != nil {
			t.Fatal(err)
		}
		ds := New(opt).AnalyzeFile(&File{EACL: mustParse(t, unsat), Known: lintKnown()})
		if got := codes(ds); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("-rules %s: codes = %v, want %v", spec, got, want)
		}
	}
	// Unknown rule is an error.
	if _, err := WithRuleFilter("E999"); err == nil {
		t.Error("unknown rule accepted")
	}
}

func TestMinSeverity(t *testing.T) {
	src := `
pos_access_right apache GET /cgi-bin/*
neg_access_right apache GET /cgi-bin/phf
pre_cond_regex gnu re:[unclosed
`
	ds := New(WithMinSeverity(SeverityError)).AnalyzeFile(&File{EACL: mustParse(t, src), Known: lintKnown()})
	for _, d := range ds {
		if d.Severity < SeverityError {
			t.Errorf("warning leaked through severity filter: %v", d)
		}
	}
	if !hasCode(ds, "E001") {
		t.Errorf("error dropped by severity filter: %v", ds)
	}
}

func TestCatalogIsStable(t *testing.T) {
	catalog := Catalog()
	if len(catalog) == 0 {
		t.Fatal("empty catalog")
	}
	seen := map[string]bool{}
	for _, m := range catalog {
		if m.Code == "" || m.Name == "" || m.Summary == "" || m.Fix == "" {
			t.Errorf("incomplete meta: %+v", m)
		}
		if seen[m.Code] {
			t.Errorf("duplicate code %s", m.Code)
		}
		seen[m.Code] = true
		wantSev := SeverityWarning
		if strings.HasPrefix(m.Code, "E") {
			wantSev = SeverityError
		}
		if m.Severity != wantSev {
			t.Errorf("%s severity = %v, inconsistent with code prefix", m.Code, m.Severity)
		}
	}
	// Every documented rule must exist.
	for _, code := range []string{"E001", "E002", "E003", "E004", "E005", "E006", "E007", "E008",
		"E010", "E011", "E012", "E013", "E020", "W001", "W002", "W003", "W004", "W005", "W006", "W007",
		"W020", "W021"} {
		if !seen[code] {
			t.Errorf("missing rule %s", code)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Code: "E001", Rule: "regex-syntax", Severity: SeverityError,
		File: "p.eacl", Line: 3, Message: "boom"}
	if got, want := d.String(), "p.eacl:3: error: boom [E001]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
