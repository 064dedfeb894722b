package eacl_test

import (
	"os"
	"testing"

	"gaaapi/internal/eacl"
	"gaaapi/internal/eacl/analysis"
)

// The static checks eacl.Validate once made, each held against the
// analyzer code that reports it now (package analysis is the one policy
// checker). The tests keep the names the checks have always had.

// diagnose runs the analyzer's full catalog over src.
func diagnose(t *testing.T, src string, known func(condType, defAuth string) bool) []analysis.Diagnostic {
	t.Helper()
	e, err := eacl.ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return analysis.New().AnalyzeFile(&analysis.File{EACL: e, Known: known})
}

// find returns the first diagnostic carrying code, or nil.
func find(ds []analysis.Diagnostic, code string) *analysis.Diagnostic {
	for i := range ds {
		if ds[i].Code == code {
			return &ds[i]
		}
	}
	return nil
}

// expect asserts that src draws code at line, or with line 0 that it
// does not draw it at all.
func expect(t *testing.T, src, code string, line int) {
	t.Helper()
	d := find(diagnose(t, src, analysis.BuiltinKnown()), code)
	switch {
	case d == nil && line != 0:
		t.Errorf("want %s at line %d, got none", code, line)
	case d != nil && d.Line != line:
		t.Errorf("want %s at line %d (0: not at all), got %v", code, line, d)
	}
}

func TestValidateCleanPolicy(t *testing.T) {
	src, err := os.ReadFile("../../policies/paper/local-7.2.eacl")
	if err != nil {
		t.Fatal(err)
	}
	if ds := diagnose(t, string(src), analysis.BuiltinKnown()); len(ds) != 0 {
		t.Errorf("findings on clean policy: %v", ds)
	}
}

func TestValidateEmpty(t *testing.T) {
	if find(diagnose(t, "", nil), "W006") == nil {
		t.Error("want W006 on an EACL with no entries")
	}
}

func TestValidateNegWithMidBlock(t *testing.T) {
	ds := diagnose(t, "neg_access_right apache *\nmid_cond_quota local cpu_ms<=10\n", nil)
	if d := find(ds, "E010"); d == nil || d.Severity != analysis.SeverityError || d.Line != 2 {
		t.Errorf("want an E010 error at line 2, got %v", ds)
	}
}

func TestValidateDuplicateEntry(t *testing.T) {
	expect(t, `
pos_access_right apache GET /a
pre_cond_time_window local 09:00-17:00
pos_access_right apache GET /a
pre_cond_time_window local 09:00-17:00
`, "W002", 4)
}

// Two spellings of the same glob language — '?' is a literal byte and
// "?*" vs "?**" generate identical strings — are duplicates though the
// strings differ; '?' being a literal, /report? and /reportX are not.
func TestValidateDuplicateEntrySemanticGlobs(t *testing.T) {
	expect(t, "pos_access_right apache GET /report?*\npos_access_right apache GET /report?**\n", "W002", 2)
	expect(t, "pos_access_right apache GET /report?\npos_access_right apache GET /reportX\n", "W002", 0)
}

func TestValidateShadowedEntry(t *testing.T) {
	expect(t, `
pos_access_right apache *
neg_access_right apache GET /secret
pre_cond_regex gnu *secret*
`, "W003", 3)
}

// The runtime matcher uses Glob, so an unconditional glob entry shadows
// every narrower pattern — not just literal "*" components.
func TestValidateShadowedByGlobEntry(t *testing.T) {
	expect(t, `
pos_access_right apache GET /cgi-bin/*
neg_access_right apache GET /cgi-bin/phf
pre_cond_regex gnu *phf*
`, "W003", 3)
}

func TestValidateNotShadowedByDisjointGlob(t *testing.T) {
	expect(t, `
pos_access_right apache GET /static/*
neg_access_right apache GET /cgi-bin/phf
pre_cond_regex gnu *phf*
`, "W003", 0)
}

// An earlier entry WITH pre-conditions can fall through, so a later
// overlapping entry is reachable.
func TestValidateNotShadowedWhenEarlierHasConditions(t *testing.T) {
	expect(t, `
pos_access_right apache *
pre_cond_system_threat_level local =low
neg_access_right apache *
pre_cond_regex gnu *phf*
`, "W003", 0)
}

func TestValidateUnknownCondition(t *testing.T) {
	known := func(condType, defAuth string) bool { return condType == "regex" }
	ds := diagnose(t, "pos_access_right apache *\npre_cond_phase_of_moon local full\n", known)
	if d := find(ds, "W001"); d == nil || d.Line != 2 {
		t.Errorf("want W001 at line 2, got %v", ds)
	}
}
