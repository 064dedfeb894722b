package analysis

import (
	"encoding/json"
	"path/filepath"
	"slices"
	"testing"

	"gaaapi/internal/eacl"
	"gaaapi/internal/eacl/reason"
)

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{Code: "E001", Rule: "regex-syntax", Severity: SeverityError,
			File: "p.eacl", Line: 2, Message: "regexp does not compile"},
		{Code: "W006", Rule: "empty-eacl", Severity: SeverityWarning,
			File: "q.eacl", Line: 0, Message: "EACL has no entries"},
	}
}

func TestJSONReportSchema(t *testing.T) {
	out, err := JSONReport(sampleDiags())
	if err != nil {
		t.Fatal(err)
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
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("JSON output does not parse: %v\n%s", err, out)
	}
	if doc.Version != 1 {
		t.Errorf("version = %d, want 1", doc.Version)
	}
	if len(doc.Findings) != 2 {
		t.Fatalf("findings = %d, want 2", len(doc.Findings))
	}
	if doc.Findings[0].Severity != "error" || doc.Findings[1].Severity != "warning" {
		t.Errorf("severities = %s, %s", doc.Findings[0].Severity, doc.Findings[1].Severity)
	}
	if doc.Findings[0].Code != "E001" || doc.Findings[0].Line != 2 {
		t.Errorf("finding[0] = %+v", doc.Findings[0])
	}
}

func TestJSONReportEmpty(t *testing.T) {
	out, err := JSONReport(nil)
	if err != nil {
		t.Fatal(err)
	}
	var doc Report
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Findings == nil || len(doc.Findings) != 0 {
		t.Errorf("empty report should carry an empty findings array, got %s", out)
	}
}

func TestSARIFShape(t *testing.T) {
	out, err := SARIFReport(sampleDiags())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID            string `json:"id"`
						Name          string `json:"name"`
						DefaultConfig struct {
							Level string `json:"level"`
						} `json:"defaultConfiguration"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("SARIF output does not parse: %v", err)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "eaclint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(Catalog()) {
		t.Errorf("rules = %d, want full catalog %d", len(run.Tool.Driver.Rules), len(Catalog()))
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	for _, res := range run.Results {
		if res.RuleIndex < 0 || res.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Errorf("ruleIndex %d out of range", res.RuleIndex)
			continue
		}
		if run.Tool.Driver.Rules[res.RuleIndex].ID != res.RuleID {
			t.Errorf("ruleIndex %d points at %q, want %q",
				res.RuleIndex, run.Tool.Driver.Rules[res.RuleIndex].ID, res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Errorf("locations = %d, want 1", len(res.Locations))
			continue
		}
		if res.Locations[0].PhysicalLocation.Region.StartLine < 1 {
			t.Errorf("startLine %d < 1 (SARIF regions are 1-based)",
				res.Locations[0].PhysicalLocation.Region.StartLine)
		}
	}
	if run.Results[0].Level != "error" || run.Results[1].Level != "warning" {
		t.Errorf("levels = %s, %s", run.Results[0].Level, run.Results[1].Level)
	}
}

// TestSARIFOfSeededFixtures reads back the SARIF report of every
// seeded fixture under testdata/eaclint: it parses, and each result
// names a catalog rule at that rule's level.
func TestSARIFOfSeededFixtures(t *testing.T) {
	paths, err := filepath.Glob("../../../testdata/eaclint/*.eacl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	var ds []Diagnostic
	for _, path := range paths {
		e, err := eacl.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, New().AnalyzeFile(&File{EACL: e, Known: lintKnown()})...)
	}
	out, err := SARIFReport(ds)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
				Level  string `json:"level"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("SARIF output does not parse: %v", err)
	}
	level := map[string]string{}
	for _, m := range Catalog() {
		level[m.Code] = m.Severity.String()
	}
	if len(doc.Runs) != 1 || len(doc.Runs[0].Results) != len(ds) {
		t.Fatalf("SARIF holds %d runs, want 1 with %d results", len(doc.Runs), len(ds))
	}
	for _, res := range doc.Runs[0].Results {
		if want, ok := level[res.RuleID]; !ok || res.Level != want {
			t.Errorf("result %s at level %q; the catalog has %q", res.RuleID, res.Level, want)
		}
	}
}

// entryAt returns the index of the entry whose span (its right's line
// up to the next entry's) holds line.
func entryAt(e *eacl.EACL, line int) int {
	i := 0
	for i+1 < len(e.Entries) && e.Entries[i+1].Line <= line {
		i++
	}
	return i
}

// FuzzAnalyze checks the whole engine never panics on any parseable
// policy — the analyzer runs in CI over untrusted policy files — that
// it reports each dead entry once: no entry's file findings carry two
// of the codes a dead entry is reported under, and that each entry gets
// from its file's engine, on which all its questions walk, the answer a
// fresh engine of the entry alone gives.
func FuzzAnalyze(f *testing.F) {
	f.Add("pos_access_right apache GET /cgi-bin/*\nneg_access_right apache GET /cgi-bin/phf\npre_cond_regex gnu *phf*")
	f.Add("neg_access_right apache *\npre_cond_regex gnu re:[unclosed\npre_cond_location local 300.0.0.0/8")
	f.Add("pos_access_right apache *\npre_cond_time_window local 09:00-09:00\npre_cond_time_window local 10:00-11:00 Mon")
	f.Add("pos_access_right apache *\npre_cond_system_threat_level local =high\npre_cond_system_threat_level local =low")
	f.Add("eacl_mode stop\nneg_access_right * *\npre_cond_expr local input_length>@max_input")
	f.Add("pos_access_right apache *\npost_cond_file_sha256 local /etc/passwd nothex")
	unsatLocation := "pos_access_right apache *\npre_cond_location local 10.0.0.0/8\npre_cond_location local 192.168.0.0/16\n"
	unsatLength := "neg_access_right apache *\npre_cond_expr local input_length>1000\npre_cond_expr local input_length<10\n"
	f.Add(unsatLocation)
	f.Add(unsatLocation + "neg_access_right apache *\n")
	f.Add(unsatLength)
	f.Add(unsatLength + "neg_access_right apache *\n")
	f.Add("pos_access_right apache *\npre_cond_time_window local 09:00-12:00\npre_cond_time_window local 13:00-17:00\nneg_access_right apache *\n")
	f.Fuzz(func(t *testing.T, src string) {
		e, err := eacl.ParseString(src)
		if err != nil {
			return
		}
		a := New()
		ds := a.AnalyzeFile(&File{EACL: e, Known: lintKnown()})
		once := map[int]Diagnostic{}
		for _, d := range ds {
			if !deadCodes[d.Code] || d.Line == 0 {
				continue
			}
			i := entryAt(e, d.Line)
			if prev, ok := once[i]; ok {
				t.Fatalf("entry at line %d reported twice: %v and %v", e.Entries[i].Line, prev, d)
			}
			once[i] = d
		}
		if eng, err := reason.New(nil, []*eacl.EACL{e}, reason.Options{}); err == nil {
			for _, en := range e.Entries {
				core, unknown := eng.Unsatisfiable(en)
				fresh, err := reason.New(nil, []*eacl.EACL{{Source: e.Source, Entries: []eacl.Entry{en}}}, reason.Options{})
				if err != nil {
					continue
				}
				if want, wantUnknown := fresh.Unsatisfiable(en); !slices.Equal(core, want) || unknown != wantUnknown {
					t.Fatalf("entry at line %d: the file's engine answers %v, %q; a fresh one %v, %q", en.Line, core, unknown, want, wantUnknown)
				}
			}
		}
		// Composition with itself on both levels must not panic either.
		ds = append(ds, a.AnalyzeComposition(NewComposition(
			[]*eacl.EACL{e}, []*eacl.EACL{e}))...)
		if _, err := JSONReport(ds); err != nil {
			t.Fatalf("JSONReport: %v", err)
		}
		if _, err := SARIFReport(ds); err != nil {
			t.Fatalf("SARIFReport: %v", err)
		}
	})
}
