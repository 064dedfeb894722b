package config

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gaaapi/internal/actions"
	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/ids"
)

func TestParseAndApply(t *testing.T) {
	cfg, err := ParseString(`
# GAA system configuration
condition system_threat_level local system_threat_level
condition regex gnu regex
action notify local notify
`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(cfg.Lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(cfg.Lines))
	}

	api := gaa.New()
	deps := Deps{}
	deps.Conditions.Threat = ids.NewManager(ids.Medium)
	if err := cfg.Apply(api, deps); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !api.Known("system_threat_level", "local") {
		t.Error("threat condition not registered")
	}
	if !api.Known("regex", "gnu") {
		t.Error("regex condition not registered")
	}
	if api.Known("regex", "other") {
		t.Error("regex registered too broadly")
	}
	if !api.Known("notify", "local") {
		t.Error("notify action not registered")
	}

	// Registered routine actually evaluates.
	e, err := eacl.ParseString(`
pos_access_right apache *
pre_cond_system_threat_level local >low
`)
	if err != nil {
		t.Fatal(err)
	}
	p := gaa.NewPolicy("/x", nil, []*eacl.EACL{e})
	ans, err := api.CheckAuthorization(context.Background(), p, gaa.NewRequest("apache", "GET /x"))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Decision != gaa.Yes {
		t.Errorf("decision = %v, want yes (threat=medium > low)", ans.Decision)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct{ src, want string }{
		{"routine x y z", "unknown keyword"},
		{"condition too few", "want"},
		{"condition a b c d e", "want"},
	}
	for _, tt := range bad {
		if _, err := ParseString(tt.src); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("ParseString(%q) err = %v, want %q", tt.src, err, tt.want)
		}
	}
}

func TestApplyUnknownRoutine(t *testing.T) {
	cfg, err := ParseString("condition phase_of_moon local lunar_module\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Apply(gaa.New(), Deps{}); err == nil {
		t.Error("want error for unknown routine")
	}
}

func TestParseFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gaa.conf")
	if err := os.WriteFile(path, []byte("condition regex gnu regex\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseFile(path)
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if len(cfg.Lines) != 1 || cfg.Source != path {
		t.Errorf("cfg = %+v", cfg)
	}
	if _, err := ParseFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("want error for missing file")
	}
}

// TestDefaultConfigurationApplies registers every built-in under the
// wildcard authority (what conditions.Register and actions.Register
// do), rendered as a configuration file: each routine name must apply.
func TestDefaultConfigurationApplies(t *testing.T) {
	var b strings.Builder
	for _, name := range conditions.Names() {
		fmt.Fprintf(&b, "condition %s * %s\n", name, name)
	}
	b.WriteString("condition regex gnu regex\n")
	for _, name := range actions.Names() {
		fmt.Fprintf(&b, "action %s * %s\n", name, name)
	}
	cfg, err := ParseString(b.String())
	if err != nil {
		t.Fatalf("default configuration does not parse: %v", err)
	}
	api := gaa.New()
	if err := cfg.Apply(api, Deps{}); err != nil {
		t.Fatalf("default configuration does not apply: %v", err)
	}
	for _, pair := range [][2]string{
		{"regex", "gnu"},
		{"accessid_USER", "apache"},
		{"quota", "local"},
		{"notify", "local"},
		{"count", "local"},
	} {
		if !api.Known(pair[0], pair[1]) {
			t.Errorf("default config missing %s/%s", pair[0], pair[1])
		}
	}
}
