package gaaapi

import (
	"path/filepath"
	"testing"

	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/eacl/analysis"
	"gaaapi/internal/gaa"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
)

// TestShippedPoliciesValidate parses and lints every policy file
// shipped under policies/, against the routine registry the shipped
// gaa.conf declares — so the repo's own artifacts never rot.
func TestShippedPoliciesValidate(t *testing.T) {
	known := shippedKnown(t)
	paths, err := filepath.Glob("policies/paper/*.eacl")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("shipped policies = %v, want 4", paths)
	}
	for _, path := range paths {
		e, err := eacl.ParseFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		for _, d := range analysis.New().AnalyzeFile(&analysis.File{EACL: e, Known: known}) {
			t.Errorf("%s", d)
		}
	}
}

// TestShippedPoliciesBehave loads the shipped 7.2 pair through the
// GAA-API and checks the headline behaviour.
func TestShippedPoliciesBehave(t *testing.T) {
	sys, err := eacl.ParseFile("policies/paper/system-7.2.eacl")
	if err != nil {
		t.Fatal(err)
	}
	loc, err := eacl.ParseFile("policies/paper/local-7.2.eacl")
	if err != nil {
		t.Fatal(err)
	}

	values := gaa.NewValues()
	values.Set("max_input", "1000")
	api := gaa.New(gaa.WithValues(values))
	grp := groups.NewStore()
	conditions.Register(api, conditions.Deps{Threat: ids.NewManager(ids.Low), Groups: grp})

	p := gaa.NewPolicy("/cgi-bin/phf", []*eacl.EACL{sys}, []*eacl.EACL{loc})
	attack := gaa.NewRequest("apache", "GET /cgi-bin/phf",
		gaa.Param{Type: gaa.ParamRequestURI, Authority: gaa.AuthorityAny, Value: "GET /cgi-bin/phf?Q=x"},
		gaa.Param{Type: gaa.ParamClientIP, Authority: gaa.AuthorityAny, Value: "10.0.0.66"},
		gaa.Param{Type: gaa.ParamInputLength, Authority: gaa.AuthorityAny, Value: "10"},
	)
	ans, err := api.CheckAuthorization(t.Context(), p, attack)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Decision != gaa.No {
		t.Errorf("shipped policy phf decision = %v, want no", ans.Decision)
	}
}
