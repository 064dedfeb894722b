package gaaapi

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"gaaapi/internal/conditions"
	"gaaapi/internal/config"
	"gaaapi/internal/eacl"
	"gaaapi/internal/eacl/analysis"
	"gaaapi/internal/eacl/reason"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
)

// diagCodes returns the sorted, deduplicated diagnostic codes.
func diagCodes(ds []analysis.Diagnostic) []string {
	seen := map[string]bool{}
	for _, d := range ds {
		seen[d.Code] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// shippedKnown builds the vocabulary the shipped gaa.conf declares.
func shippedKnown(t *testing.T) func(condType, defAuth string) bool {
	t.Helper()
	cfg, err := config.ParseFile("policies/paper/gaa.conf")
	if err != nil {
		t.Fatalf("shipped gaa.conf does not parse: %v", err)
	}
	api := gaa.New()
	deps := config.Deps{}
	deps.Conditions.Threat = ids.NewManager(ids.Low)
	deps.Conditions.Groups = groups.NewStore()
	if err := cfg.Apply(api, deps); err != nil {
		t.Fatalf("shipped gaa.conf does not apply: %v", err)
	}
	return api.Known
}

// lintKnown is eaclint's default vocabulary: the built-in conditions
// and the stubbed built-in actions.
func lintKnown() func(condType, defAuth string) bool {
	api := gaa.New()
	reason.RegisterVocabulary(api, conditions.Deps{})
	return api.Known
}

// TestShippedPoliciesAnalyzeClean runs the full analyzer catalog over
// every policy file shipped under policies/ — the repo's own artifacts
// must stay free of findings at any severity.
func TestShippedPoliciesAnalyzeClean(t *testing.T) {
	known := shippedKnown(t)
	paths, err := filepath.Glob("policies/paper/*.eacl")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no shipped policies found")
	}
	a := analysis.New()
	for _, path := range paths {
		e, err := eacl.ParseFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		for _, d := range a.AnalyzeFile(&analysis.File{EACL: e, Known: known}) {
			t.Errorf("%s", d)
		}
	}
}

// TestShippedCompositionsAnalyzeClean composes each paper scenario's
// system + local pair and checks the composition rules stay silent.
func TestShippedCompositionsAnalyzeClean(t *testing.T) {
	a := analysis.New()
	for _, scenario := range []string{"7.1", "7.2"} {
		sys, err := eacl.ParseFile("policies/paper/system-" + scenario + ".eacl")
		if err != nil {
			t.Fatal(err)
		}
		loc, err := eacl.ParseFile("policies/paper/local-" + scenario + ".eacl")
		if err != nil {
			t.Fatal(err)
		}
		c := analysis.NewComposition([]*eacl.EACL{sys}, []*eacl.EACL{loc})
		for _, d := range a.AnalyzeComposition(c) {
			t.Errorf("scenario %s: %s", scenario, d)
		}
	}
}

// examplePolicyRE matches the inline policy constants every example
// declares (const xxxPolicy = ` ... ` and quickstart's const policy).
var examplePolicyRE = regexp.MustCompile("(?ms)^const (\\w*[pP]olicy) = `(.*?)`")

// examplePolicies extracts the inline EACL text from every example
// program, each parsed with Source set to "<main.go>:<const name>".
func examplePolicies(t *testing.T) []*eacl.EACL {
	t.Helper()
	dirs, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no examples found")
	}
	var out []*eacl.EACL
	for _, mainPath := range dirs {
		src, err := os.ReadFile(mainPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range examplePolicyRE.FindAllStringSubmatch(string(src), -1) {
			name, text := m[1], m[2]
			e, err := eacl.ParseString(text)
			if err != nil {
				t.Errorf("%s %s: %v", mainPath, name, err)
				continue
			}
			e.Source = mainPath + ":" + name
			out = append(out, e)
		}
	}
	return out
}

// TestExamplePoliciesAnalyzeClean runs the analyzer over every example
// program's inline policies, so the runnable documentation cannot
// accumulate policy bugs.
func TestExamplePoliciesAnalyzeClean(t *testing.T) {
	a := analysis.New()
	examples := examplePolicies(t)
	for _, e := range examples {
		for _, d := range a.AnalyzeFile(&analysis.File{EACL: e, Known: lintKnown()}) {
			t.Errorf("%s", d)
		}
	}
	if len(examples) < 7 {
		t.Errorf("extracted %d inline policies, want at least one per example", len(examples))
	}
}

// TestOneFindingPerDeadEntry: the prover's cause picks one code per dead
// entry, so no entry carries two of E011, E012, E013, W002, W003, W007,
// W020 and W022 on any of its lines — over the seeded fixtures and
// their compositions, the example policies, and a verbatim duplicate
// (once W002, W007 and W022).
func TestOneFindingPerDeadEntry(t *testing.T) {
	dup, err := eacl.ParseString("pos_access_right apache GET /a\npre_cond_time_window local 09:00-17:00\n" +
		"pos_access_right apache GET /a\npre_cond_time_window local 09:00-17:00\n")
	if err != nil {
		t.Fatal(err)
	}
	dup.Source = "duplicate"
	files := append(examplePolicies(t), dup)
	paths, err := filepath.Glob("testdata/eaclint/*.eacl")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		e, err := eacl.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, e)
	}
	a := analysis.New()
	var ds []analysis.Diagnostic
	bySource := map[string]*eacl.EACL{}
	for _, e := range files {
		bySource[e.Source] = e
		ds = append(ds, a.AnalyzeFile(&analysis.File{EACL: e, Known: lintKnown()})...)
	}
	for _, prefix := range []string{"stop", "expand", "narrow", "anon"} {
		sys, err := eacl.ParseFile(filepath.Join("testdata/eaclint", prefix+"-system.eacl"))
		if err != nil {
			t.Fatal(err)
		}
		loc, err := eacl.ParseFile(filepath.Join("testdata/eaclint", prefix+"-local.eacl"))
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, a.AnalyzeComposition(analysis.NewComposition([]*eacl.EACL{sys}, []*eacl.EACL{loc}))...)
	}
	type at struct {
		file  string
		entry int
	}
	seen := map[at]analysis.Diagnostic{}
	dupReported := false
	for _, d := range ds {
		switch d.Code {
		case "E011", "E012", "E013", "W002", "W003", "W007", "W020", "W022":
		default:
			continue
		}
		e := bySource[d.File]
		if e == nil {
			t.Fatalf("finding in an unknown file: %v", d)
		}
		if d.Line == 0 {
			continue // the file-wide "unknown" note belongs to no entry
		}
		k := at{d.File, entryAt(e, d.Line)}
		if prev, ok := seen[k]; ok {
			t.Errorf("%s: entry at line %d reported twice: %s at line %d and %s at line %d",
				d.File, e.Entries[k.entry].Line, prev.Code, prev.Line, d.Code, d.Line)
		}
		seen[k] = d
		dupReported = dupReported || d.File == "duplicate" && d.Code == "W002"
	}
	if !dupReported {
		t.Errorf("the verbatim duplicate is not reported as W002: %v", ds)
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

// TestSeededFixturesTriggerTheirRule is the golden contract for the
// seeded bad policies under testdata/eaclint: each fixture triggers
// exactly the documented codes and nothing else.
func TestSeededFixturesTriggerTheirRule(t *testing.T) {
	a := analysis.New()
	tests := []struct {
		file  string
		codes []string
		line  int // the one finding's line
	}{
		{"bad-regex.eacl", []string{"E001"}, 3},
		{"bad-cidr.eacl", []string{"E002"}, 3},
		{"empty-window.eacl", []string{"E004"}, 4},
		{"threat-contradiction.eacl", []string{"E012"}, 4},
		{"conflict.eacl", []string{"W004"}, 4},
		// One dead entry, one finding: the prover's cause picks the code.
		// A single unconditional shadow is W003, a single conditional
		// same-sign shadow W007.
		{"unreachable.eacl", []string{"W003"}, 4},
		{"subsumed.eacl", []string{"W007"}, 5},
		// The first two entries partition the threat scale and shadow
		// entry 3 jointly: W022.
		{"prover-dead.eacl", []string{"W022"}, 10},
		// An unsatisfiable entry is the prover's fact, reported once
		// under the conditions at fault and left out of the file's grid,
		// so it shadows nothing and truncates nothing.
		{"unsat-location.eacl", []string{"E013"}, 4},
		{"unsat-location-first.eacl", []string{"E013"}, 4},
		// A CIDR is a language: no string of the glob lies in the block.
		{"unsat-location-glob.eacl", []string{"E013"}, 4},
		{"unsat-length.eacl", []string{"E013"}, 3},
		{"unsat-length-first.eacl", []string{"E013"}, 4},
		{"time-contradiction-first.eacl", []string{"E011"}, 6},
		// Two request-line languages with no string in common: the
		// string search's empty intersection, for expressions and globs.
		{"unsat-regex.eacl", []string{"E013"}, 3},
		{"unsat-globs.eacl", []string{"E013"}, 3},
		// Their satisfiable twin.
		{"sat-globs.eacl", nil, 0},
		// An address glob the scan reaches only outside an earlier
		// entry's CIDR: no walk asks for an address in both.
		{"glob-beside-cidr.eacl", nil, 0},
		// Glob bytes outside UTF-8 beside an expression: the search
		// cannot tell, so no W007, and the entry whose language mixes
		// both reads unknown.
		{"glob-bytes-beside-regex.eacl", []string{"W022"}, 6},
		// A user glob outside UTF-8 with no expression beside it: the
		// search reads bytes, and the user "\xffroot" fires the entry.
		{"user-bytes.eacl", nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.file, func(t *testing.T) {
			e, err := eacl.ParseFile(filepath.Join("testdata/eaclint", tt.file))
			if err != nil {
				t.Fatal(err)
			}
			ds := a.AnalyzeFile(&analysis.File{EACL: e, Known: lintKnown()})
			got := diagCodes(ds)
			if len(got) != len(tt.codes) {
				t.Fatalf("codes = %v, want %v (%v)", got, tt.codes, ds)
			}
			for i := range got {
				if got[i] != tt.codes[i] {
					t.Fatalf("codes = %v, want %v", got, tt.codes)
				}
			}
			if tt.codes != nil && (len(ds) != 1 || ds[0].Line != tt.line) {
				t.Errorf("findings = %v, want one at line %d", ds, tt.line)
			}
		})
	}
}

// TestSeededCompositionFixtures checks the composed fixture pairs
// trigger their documented composition codes.
func TestSeededCompositionFixtures(t *testing.T) {
	a := analysis.New()
	tests := []struct {
		prefix string
		code   string
	}{
		{"stop", "W020"},
		{"expand", "W021"},
		{"narrow", "E020"},
		// Prover-backed: an intranet allow scanned before the
		// authentication guard hands admin rights to anonymous clients.
		{"anon", "W023"},
	}
	for _, tt := range tests {
		t.Run(tt.prefix, func(t *testing.T) {
			sys, err := eacl.ParseFile(filepath.Join("testdata/eaclint", tt.prefix+"-system.eacl"))
			if err != nil {
				t.Fatal(err)
			}
			loc, err := eacl.ParseFile(filepath.Join("testdata/eaclint", tt.prefix+"-local.eacl"))
			if err != nil {
				t.Fatal(err)
			}
			c := analysis.NewComposition([]*eacl.EACL{sys}, []*eacl.EACL{loc})
			got := diagCodes(a.AnalyzeComposition(c))
			if len(got) != 1 || got[0] != tt.code {
				t.Errorf("codes = %v, want [%s]", got, tt.code)
			}
		})
	}
}
