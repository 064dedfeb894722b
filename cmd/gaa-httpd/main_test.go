package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaahttp"
	"gaaapi/internal/ids"
	"gaaapi/policies/paper"
)

func buildDemo(t *testing.T, args ...string) *gaahttp.Stack {
	t.Helper()
	o, err := parseOptions(args)
	if err != nil {
		t.Fatalf("parseOptions: %v", err)
	}
	st, err := build(o)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	t.Cleanup(st.Close)
	return st
}

func get(t *testing.T, h http.Handler, target, ip string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", target, nil)
	req.RemoteAddr = ip + ":40000"
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

const slashFlood = "/////////////////////////////////////////index.html"

func TestDemoDeploymentServesAndProtects(t *testing.T) {
	st := buildDemo(t)
	h := st.Handler()

	if w := get(t, h, "/index.html", "10.0.0.5"); w.Code != http.StatusOK {
		t.Errorf("home = %d, want 200", w.Code)
	}
	// A slash flood is denied, its source blacklisted, and the demo
	// policy's rr_cond_set_threat_level sets medium inside the request.
	// The signature is of medium severity, so the correlator, which
	// needs a high-severity report to go further, leaves it there.
	if w := get(t, h, slashFlood, "10.0.0.70"); w.Code != http.StatusForbidden {
		t.Errorf("slash flood = %d, want 403", w.Code)
	}
	if got := st.Threat.Level(); got != ids.Medium {
		t.Errorf("threat level = %v after a slash flood, want medium", got)
	}
	// The blacklisted source is denied on any object; everyone else is
	// still served.
	if w := get(t, h, "/index.html", "10.0.0.70"); w.Code != http.StatusForbidden {
		t.Errorf("blacklisted client = %d, want 403", w.Code)
	}
	if w := get(t, h, "/index.html", "10.0.0.5"); w.Code != http.StatusOK {
		t.Errorf("clean client at medium = %d, want 200", w.Code)
	}

	// phf is a high-severity signature: once HighAfter distinct sources
	// have sent it, the correlator raises the level to high before the
	// last request returns, where the system policy locks the server
	// down (section 7.1).
	for _, ip := range probeSources() {
		if w := get(t, h, "/cgi-bin/phf?Qalias=x", ip); w.Code != http.StatusForbidden {
			t.Errorf("phf from %s = %d, want 403", ip, w.Code)
		}
		if !st.Groups.Contains("BadGuys", ip) {
			t.Errorf("attacker %s not blacklisted", ip)
		}
	}
	if got := st.Threat.Level(); got != ids.High {
		t.Errorf("threat level = %v when the last phf request returned, want high", got)
	}
	if w := get(t, h, "/index.html", "10.0.0.5"); w.Code != http.StatusForbidden {
		t.Errorf("clean client under lockdown = %d, want 403", w.Code)
	}
}

func TestFileBackedDeployment(t *testing.T) {
	dir := t.TempDir()
	sysPath := filepath.Join(dir, "system.eacl")
	if err := os.WriteFile(sysPath, []byte("eacl_mode narrow\nneg_access_right * *\npre_cond_accessid_GROUP local BadGuys\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	localDir := filepath.Join(dir, "site")
	if err := os.MkdirAll(localDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(localDir, ".eacl"), []byte("pos_access_right apache *\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	htpasswd := filepath.Join(dir, "users")
	if err := os.WriteFile(htpasswd, []byte("alice:{PLAIN}pw\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	groupsFile := filepath.Join(dir, "groups.txt")
	if err := os.WriteFile(groupsFile, []byte("BadGuys: 203.0.113.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	accessLog := filepath.Join(dir, "access.log")

	h := buildDemo(t,
		"-system", sysPath,
		"-local-dir", localDir,
		"-htpasswd", htpasswd,
		"-groups", groupsFile,
		"-access-log", accessLog,
	).Handler()

	// Preloaded blacklist member is denied.
	if w := get(t, h, "/index.html", "203.0.113.5"); w.Code != http.StatusForbidden {
		t.Errorf("preloaded blacklist member = %d, want 403", w.Code)
	}
	// Clean clients are served under the permissive local policy.
	if w := get(t, h, "/index.html", "10.0.0.5"); w.Code != http.StatusOK {
		t.Errorf("clean client = %d, want 200", w.Code)
	}
	// A reload re-reads the files and the analyzer vets them.
	reload := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/gaa/reload", nil)
		req.RemoteAddr = "127.0.0.1:40000"
		h.ServeHTTP(w, req)
		return w
	}
	if w := reload(); w.Code != http.StatusOK {
		t.Errorf("reload of the unchanged files = %d, want 200:\n%s", w.Code, w.Body)
	}
	if err := os.WriteFile(filepath.Join(localDir, ".eacl"), []byte("pos_access_right apache *\npre_cond_regex gnu re:(\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if w := reload(); w.Code != http.StatusUnprocessableEntity {
		t.Errorf("reload of a bad policy file = %d, want 422:\n%s", w.Code, w.Body)
	}
	if raw, err := os.ReadFile(accessLog); err != nil || !strings.Contains(string(raw), "GET /index.html") {
		t.Errorf("access log %q, err %v: want the served requests", raw, err)
	}
}

// TestBuildErrors: a file-backed input that cannot be read fails
// start-up, and the error names the input.
func TestBuildErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-htpasswd", "/nonexistent/file"}, "htpasswd"},
		{[]string{"-groups", string([]byte{0})}, "groups"}, // unopenable path
		{[]string{"-system", "/nonexistent/policy.eacl"}, "system"},
	} {
		o, err := parseOptions(tc.args)
		if err != nil {
			t.Fatalf("parseOptions(%q): %v", tc.args, err)
		}
		st, err := build(o)
		if err == nil {
			st.Close()
			t.Errorf("build(%q) should fail", tc.args)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("build(%q) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

func TestParseOptions(t *testing.T) {
	o, err := parseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.listen != ":8080" {
		t.Errorf("default listen = %q", o.listen)
	}
	if !o.stack.Metrics || o.stack.Pprof || o.stack.Adaptive != nil || o.stack.Fsync != "interval" {
		t.Errorf("defaults = %+v", o.stack)
	}
	o, err = parseOptions([]string{"-node-id", "a", "-peers", "http://b:1, http://c:2,", "-adaptive", "-metrics=false"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(o.stack.Peers, "|"); got != "http://b:1|http://c:2" {
		t.Errorf("peers = %q", got)
	}
	if o.stack.Adaptive == nil || o.stack.Metrics {
		t.Errorf("-adaptive -metrics=false = %+v", o.stack)
	}
	for _, args := range [][]string{
		{"-bogus"},
		{"-peers", "http://b:1"}, // needs -node-id
		{"-fault-evaluators", "panic=2"},
		// Removed: no test, drill, CI step or benchmark ever set them.
		{"-notify-latency", "1ms"},
		{"-adaptive-block-score", "3"},
		{"-adaptive-block-for", "1m"},
		{"-adaptive-dwell", "1m"},
	} {
		if _, err := parseOptions(args); err == nil {
			t.Errorf("parseOptions(%q): want an error", args)
		}
	}
}

// TestGroupsSavedOnEveryExit: the blacklist file is written when the
// server stops on a listen error, not only after a clean signal.
func TestGroupsSavedOnEveryExit(t *testing.T) {
	groupsFile := filepath.Join(t.TempDir(), "groups.txt")
	err := run([]string{"-listen", "not-an-address", "-groups", groupsFile, "-access-log", os.DevNull})
	if err == nil {
		t.Fatal("run on an unusable listen address should fail")
	}
	if _, serr := os.Stat(groupsFile); serr != nil {
		t.Errorf("groups file not saved after %v: %v", err, serr)
	}
}

// TestDemoSignaturesMatchShippedPolicy: the demo site's section 7.2
// signature line is a copy of the shipped policy's (paper.Local72) and
// must not drift from it.
func TestDemoSignaturesMatchShippedPolicy(t *testing.T) {
	signatures := func(e *eacl.EACL, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, en := range e.Entries {
			for _, c := range en.Conditions {
				if c.Type == "regex" {
					return c.Value
				}
			}
		}
		t.Fatalf("%s: no pre_cond_regex", e.Source)
		return ""
	}
	shipped := signatures(eacl.ParseString(paper.Local72))
	if demo := signatures(eacl.ParseString(demoLocalPolicy)); demo != shipped {
		t.Errorf("demo policy's signatures\n  %s\nhave drifted from the shipped policy's\n  %s", demo, shipped)
	}
}
