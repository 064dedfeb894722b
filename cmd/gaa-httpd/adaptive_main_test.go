package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gaaapi/internal/ids"
)

// TestDemoAdaptiveBound: the demo deployment's overflow bound lives in
// the runtime value store, and the host-IDS loop NewStack runs tightens
// it level by level, so a query acceptable in peacetime is denied.
func TestDemoAdaptiveBound(t *testing.T) {
	st := buildDemo(t)
	h := st.Handler()
	boundIs := func(want string) func() bool {
		return func() bool {
			v, _ := st.Values.LookupValue("max_input")
			return v == want
		}
	}

	query := "/cgi-bin/search?q=" + strings.Repeat("z", 500)
	// Peacetime: 500 bytes < 1000-byte bound.
	if w := get(t, h, query, "10.0.0.5"); w.Code != http.StatusOK {
		t.Fatalf("peacetime 500-byte query = %d, want 200", w.Code)
	}

	// A medium-severity signature: the demo policy sets medium inside
	// the request and the correlator takes it no further; the tuner, a
	// listener on the threat manager, has set medium's bound by the
	// time the request returns.
	if w := get(t, h, slashFlood, "10.0.0.70"); w.Code != http.StatusForbidden {
		t.Fatalf("slash flood = %d, want 403", w.Code)
	}
	if !boundIs("300")() {
		t.Fatal("max_input is not 300 after the request that set the level to medium")
	}
	if w := get(t, h, query, "10.0.0.5"); w.Code != http.StatusForbidden {
		t.Errorf("500-byte query under the 300-byte bound = %d, want 403", w.Code)
	}
	// The bound denied it, not the lockdown that high would bring.
	if got := st.Threat.Level(); got != ids.Medium {
		t.Fatalf("threat level = %v, want medium", got)
	}

	// A high-severity signature: the correlator raises the level to
	// high on the one report and the tuner follows.
	if w := get(t, h, "/cgi-bin/phf?x", "10.0.0.66"); w.Code != http.StatusForbidden {
		t.Fatalf("phf = %d, want 403", w.Code)
	}
	waitFor(t, "threat level high", func() bool { return st.Threat.Level() == ids.High })
	waitFor(t, "max_input = 100", boundIs("100"))
}

func TestDocrootFlagServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	writeDoc := func(name, content string) {
		t.Helper()
		if err := writeFileHelper(dir, name, content); err != nil {
			t.Fatal(err)
		}
	}
	writeDoc("ondisk.html", "disk content")

	h := buildDemo(t, "-docroot", dir).Handler()
	if w := get(t, h, "/ondisk.html", "10.0.0.5"); w.Code != http.StatusOK || w.Body.String() != "disk content" {
		t.Errorf("disk doc = %d %q", w.Code, w.Body.String())
	}
}

func writeFileHelper(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}
