package gaahttp

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/cluster"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/metrics"
)

// adminPolicy denies and blacklists the probes the section 7.2 policy
// names and escalates the threat level to medium; everything else is
// granted.
const adminPolicy = `
neg_access_right apache *
pre_cond_regex gnu *phf* *///////////////////*
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_set_threat_level local on:failure/medium
pos_access_right apache *
`

func adminStack(t *testing.T, cfg StackConfig) *Stack {
	t.Helper()
	cfg.LocalPolicies = map[string]string{"*": adminPolicy}
	cfg.DocRoot = map[string]string{"/index.html": "home"}
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	t.Cleanup(st.Close)
	return st
}

func adminDo(h http.Handler, method, target string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, nil)
	req.RemoteAddr = "10.9.9.9:40000"
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestHandlerDispatch: every admin path is dispatched ahead of the
// guarded server when its feature is on, and falls through to the
// guard (which has no such document: 404) when it is off.
func TestHandlerDispatch(t *testing.T) {
	bare := adminStack(t, StackConfig{}).Handler()
	full := adminStack(t, StackConfig{
		Metrics: true, Pprof: true, ReliableNotify: true,
		NodeID: "a", ClusterTransport: cluster.NewLoopTransport(),
		Adaptive: &adaptive.Config{},
	}).Handler()
	adminDo(full, "GET", "/cgi-bin/phf?x")

	for _, tc := range []struct {
		name           string
		h              http.Handler
		method, target string
		code           int
		body           []string
	}{
		{"status", full, "GET", "/gaa/status", 200, []string{
			"threat level: medium", "BadGuys: 10.9.9.9", "bus reports: 1", "supervision: ",
			"notifier: delivered=", "adaptive: signal=", "reload: generation=", "cluster: node=a", "audit: "}},
		{"status bare", bare, "GET", "/gaa/status", 200, []string{"threat level: low", "BadGuys: \n", "reload: generation="}},
		{"reload wants POST", bare, "GET", "/gaa/reload", 405, nil},
		// Built from policy text: nothing on disk to re-read.
		{"reload without policy files", bare, "POST", "/gaa/reload", 422, []string{"no policy loader configured"}},
		{"healthz", bare, "GET", HealthzPath, 200, []string{`"ready":true`}},
		{"replicate", full, "POST", cluster.ReplicatePath, 400, nil}, // the node's handler: an empty push is rejected
		{"replicate without NodeID", bare, "POST", cluster.ReplicatePath, 404, nil},
		{"metrics", full, "GET", "/gaa/metrics", 200, []string{"gaa_threat_level 2", "gaa_http_requests_total"}},
		{"metrics off", bare, "GET", "/gaa/metrics", 404, nil},
		{"pprof", full, "GET", "/debug/pprof/goroutine?debug=1", 200, []string{"goroutine"}},
		{"pprof off", bare, "GET", "/debug/pprof/goroutine?debug=1", 404, nil},
		{"document", bare, "GET", "/index.html", 200, []string{"home"}},
	} {
		w := adminDo(tc.h, tc.method, tc.target)
		if w.Code != tc.code {
			t.Errorf("%s: %s %s = %d, want %d:\n%s", tc.name, tc.method, tc.target, w.Code, tc.code, w.Body)
		}
		for _, want := range tc.body {
			if !strings.Contains(w.Body.String(), want) {
				t.Errorf("%s: body lacks %q:\n%s", tc.name, want, w.Body)
			}
		}
	}
}

// TestHandlerSlashFloodReachesGuard guards against dispatch-layer path
// canonicalization (http.ServeMux 301s "//" paths before the
// access-control phase, hiding slash-flood probes from detection).
func TestHandlerSlashFloodReachesGuard(t *testing.T) {
	st := adminStack(t, StackConfig{})
	target := "/" + strings.Repeat("/", 40) + "index.html"
	if w := adminDo(st.Handler(), "GET", target); w.Code != http.StatusForbidden {
		t.Errorf("slash flood = %d, want 403 (guard must see the raw path)", w.Code)
	}
	if !st.Groups.Contains("BadGuys", "10.9.9.9") {
		t.Error("slash-flood source not blacklisted")
	}
}

// TestHandlerMetricsExposition lints what /gaa/metrics serves after
// attack traffic: it must parse (every sample preceded by a registered
// TYPE line, no duplicate series), satisfy histogram invariants, and
// reflect the traffic just served.
func TestHandlerMetricsExposition(t *testing.T) {
	st := adminStack(t, StackConfig{Metrics: true})
	h := st.Handler()
	adminDo(h, "GET", "/index.html")
	adminDo(h, "GET", "/cgi-bin/phf?Qalias=x")

	w := adminDo(h, "GET", "/gaa/metrics")
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	fams, err := metrics.Parse(w.Body)
	if err != nil {
		t.Fatalf("exposition lint failed: %v", err)
	}
	for name, fam := range fams {
		if !metrics.ValidName(name) {
			t.Errorf("invalid metric name %q", name)
		}
		if fam.Type == "histogram" {
			if err := metrics.CheckHistogramInvariants(fam); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	vals := st.Metrics.Values()
	for _, series := range []string{
		`gaa_decisions_total{decision="yes",phase="check"}`,
		`gaa_decisions_total{decision="no",phase="check"}`, // the phf denial
		`gaa_http_requests_total{code_class="4xx"}`,
	} {
		if got := vals[series]; got < 1 {
			t.Errorf("%s = %v, want >= 1", series, got)
		}
	}
	// The policy escalates to medium; no host-IDS loop runs here
	// (LevelValues unset) to take it further.
	if got := vals["gaa_threat_level"]; got != 2 {
		t.Errorf("gaa_threat_level = %v, want 2 (medium)", got)
	}
}

// TestNewStackErrorReleasesEverything: a policy that fails to parse is
// found after the state store is open, the scorer's worker is running
// and the cluster node exists; NewStack must hand all of it back.
func TestNewStackErrorReleasesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	cfg := StackConfig{
		StateDir:         dir,
		NodeID:           "a",
		Peers:            []string{"loop://b"},
		ClusterTransport: cluster.NewLoopTransport(),
		Adaptive:         &adaptive.Config{},
		AsyncNotify:      true,
		LocalPolicies:    map[string]string{"*": "pos_access_right\n"},
	}
	if st, err := NewStack(cfg); err == nil {
		st.Close()
		t.Fatal("NewStack with a malformed local policy should fail")
	} else if !strings.Contains(err.Error(), "local policy") {
		t.Errorf("error = %v, want it to name the local policy", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after the failed NewStack:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	// The store was closed, not abandoned: the directory opens again.
	cfg.LocalPolicies = nil
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatalf("NewStack after the failed one: %v", err)
	}
	st.Close()
}
