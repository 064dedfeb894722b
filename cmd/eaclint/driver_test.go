package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// End-to-end coverage of the analyzer driver: exit codes, -json schema
// stability, SARIF 2.1.0 shape, rule/severity filtering, composition.

const conflictPolicy = `
pos_access_right apache GET /cgi-bin/*
neg_access_right apache GET /cgi-bin/phf
pre_cond_regex gnu *phf*
`

const badValuePolicy = `
neg_access_right apache *
pre_cond_regex gnu re:[unclosed
`

func TestExitCodes(t *testing.T) {
	clean := writePolicy(t, "pos_access_right apache *\n")
	var out strings.Builder
	if code, err := run([]string{clean}, &out); err != nil || code != 0 {
		t.Errorf("clean policy: code=%d err=%v\n%s", code, err, out.String())
	}

	// Warnings alone keep exit 0 (vet-style: only errors gate).
	warn := writePolicy(t, conflictPolicy)
	out.Reset()
	if code, err := run([]string{warn}, &out); err != nil || code != 0 {
		t.Errorf("warning-only policy: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "W003") {
		t.Errorf("missing W003 finding:\n%s", out.String())
	}

	// Error findings exit 1.
	bad := writePolicy(t, badValuePolicy)
	out.Reset()
	if code, err := run([]string{bad}, &out); err != nil || code != 1 {
		t.Errorf("error policy: code=%d err=%v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "E001") {
		t.Errorf("missing E001 finding:\n%s", out.String())
	}

	// Usage errors return err (main maps that to exit 2).
	out.Reset()
	if _, err := run([]string{"-rules", "E999", clean}, &out); err == nil {
		t.Error("want usage error for unknown rule")
	}
	out.Reset()
	if _, err := run([]string{"-severity", "fatal", clean}, &out); err == nil {
		t.Error("want usage error for unknown severity")
	}
}

func TestJSONOutput(t *testing.T) {
	bad := writePolicy(t, badValuePolicy)
	var out strings.Builder
	code, err := run([]string{"-json", bad}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	var doc struct {
		Version  int `json:"version"`
		Findings []struct {
			Code     string `json:"code"`
			Rule     string `json:"rule"`
			Severity string `json:"severity"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if doc.Version != 1 {
		t.Errorf("report version = %d, want 1", doc.Version)
	}
	found := false
	for _, f := range doc.Findings {
		if f.Code == "E001" && f.Severity == "error" && f.File == bad && f.Line > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no well-formed E001 finding in %s", out.String())
	}

	// A clean policy still emits a parseable document with an empty array.
	clean := writePolicy(t, "pos_access_right apache *\n")
	out.Reset()
	if code, err := run([]string{"-json", clean}, &out); err != nil || code != 0 {
		t.Fatalf("clean -json: code=%d err=%v", code, err)
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("clean -json does not parse: %v", err)
	}
	if len(doc.Findings) != 0 {
		t.Errorf("clean policy findings: %v", doc.Findings)
	}
}

func TestSARIFOutput(t *testing.T) {
	bad := writePolicy(t, badValuePolicy)
	var out strings.Builder
	code, err := run([]string{"-sarif", bad}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string           `json:"name"`
					Rules []map[string]any `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
				Level  string `json:"level"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("-sarif output does not parse: %v", err)
	}
	if doc.Version != "2.1.0" || !strings.Contains(doc.Schema, "sarif-2.1.0") {
		t.Errorf("version=%q schema=%q", doc.Version, doc.Schema)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Tool.Driver.Name != "eaclint" {
		t.Fatalf("runs = %+v", doc.Runs)
	}
	if len(doc.Runs[0].Tool.Driver.Rules) == 0 {
		t.Error("SARIF driver carries no rule catalog")
	}
	hasE001 := false
	for _, r := range doc.Runs[0].Results {
		if r.RuleID == "E001" && r.Level == "error" {
			hasE001 = true
		}
	}
	if !hasE001 {
		t.Errorf("no E001 result in SARIF output:\n%s", out.String())
	}
}

func TestRulesFlag(t *testing.T) {
	path := writePolicy(t, conflictPolicy+badValuePolicy)
	var out strings.Builder
	code, err := run([]string{"-rules", "W003", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit = %d, want 0 (E001 filtered out)", code)
	}
	if !strings.Contains(out.String(), "W003") || strings.Contains(out.String(), "E001") {
		t.Errorf("rule filter not applied:\n%s", out.String())
	}

	out.Reset()
	if _, err := run([]string{"-rules", "-unreachable-entry", path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "W003") || !strings.Contains(out.String(), "E001") {
		t.Errorf("negative rule filter not applied:\n%s", out.String())
	}

	// The unsatisfiable entry is the fixture's only error.
	out.Reset()
	code, err = run([]string{"-rules", "-E013", "../../testdata/eaclint/unsat-location.eacl"}, &out)
	if err != nil || code != 0 || strings.Contains(out.String(), "E013") {
		t.Errorf("-rules -E013: exit %d, err %v, want 0 and no E013:\n%s", code, err, out.String())
	}
}

func TestSeverityFlag(t *testing.T) {
	path := writePolicy(t, conflictPolicy)
	var out strings.Builder
	code, err := run([]string{"-severity", "error", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit = %d, want 0", code)
	}
	if strings.Contains(out.String(), "W003") {
		t.Errorf("warning leaked through -severity error:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok (") {
		t.Errorf("clean-at-error-severity file not reported ok:\n%s", out.String())
	}
}

func TestCompositionFlags(t *testing.T) {
	dir := t.TempDir()
	sys := filepath.Join(dir, "system.eacl")
	loc := filepath.Join(dir, "local.eacl")
	if err := os.WriteFile(sys, []byte("eacl_mode stop\nneg_access_right * *\npre_cond_system_threat_level local =high\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(loc, []byte("pos_access_right apache *\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code, err := run([]string{"-system", sys, "-local", loc}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit = %d, want 0 (W020 is a warning)", code)
	}
	if !strings.Contains(out.String(), "W020") {
		t.Errorf("composition finding missing:\n%s", out.String())
	}

	// Narrow dead grant is an error: exit 1.
	if err := os.WriteFile(sys, []byte("eacl_mode narrow\nneg_access_right * *\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = run([]string{"-system", sys, "-local", loc}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "E020") {
		t.Errorf("code=%d output:\n%s", code, out.String())
	}
}
