package gaahttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/cluster"
	"gaaapi/internal/eacl"
	"gaaapi/internal/eacl/analysis"
	"gaaapi/internal/eacl/reason"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/metrics"
	"gaaapi/internal/netblock"
	"gaaapi/internal/statestore"
	"gaaapi/policies/paper"
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

// loopback is the source admin.eacl grants; 10.9.9.9 is any other.
const loopback = "127.0.0.1"

func adminDo(h http.Handler, from, method, target string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, nil)
	req.RemoteAddr = from + ":40000"
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestHandlerDispatch: every admin object is served to loopback when
// its feature is on, and is no document (404) when it is off; any other
// source is denied every one of them.
func TestHandlerDispatch(t *testing.T) {
	bare := adminStack(t, StackConfig{}).Handler()
	full := adminStack(t, StackConfig{
		Metrics: true, Pprof: true, ReliableNotify: true,
		NodeID: "a", ClusterTransport: cluster.NewLoopTransport(),
		Adaptive: &adaptive.Config{},
	}).Handler()
	adminDo(full, "10.9.9.9", "GET", "/cgi-bin/phf?x")

	for _, tc := range []struct {
		name                 string
		h                    http.Handler
		from, method, target string
		code                 int
		body                 []string
	}{
		{"status", full, loopback, "GET", "/gaa/status", 200, []string{
			"threat level: medium", "BadGuys: 10.9.9.9", "bus reports: 1", "supervision: ",
			"notifier: delivered=", "adaptive: signal=", "reload: generation=", "cluster: node=a", "audit: "}},
		{"status bare", bare, loopback, "GET", "/gaa/status", 200, []string{"threat level: low", "BadGuys: \n", "reload: generation="}},
		{"reload wants POST", bare, loopback, "GET", "/gaa/reload", 405, nil},
		// Built from policy text: nothing on disk to re-read.
		{"reload without policy files", bare, loopback, "POST", "/gaa/reload", 422, []string{"no policy loader configured"}},
		{"healthz", bare, loopback, "GET", HealthzPath, 200, []string{`"ready":true`}},
		{"replicate", full, loopback, "POST", cluster.ReplicatePath, 400, nil}, // the node's handler: an empty push is rejected
		{"replicate without NodeID", bare, loopback, "POST", cluster.ReplicatePath, 404, nil},
		{"metrics", full, loopback, "GET", "/gaa/metrics", 200, []string{"gaa_threat_level 2", "gaa_http_requests_total"}},
		{"metrics off", bare, loopback, "GET", "/gaa/metrics", 404, nil},
		{"pprof", full, loopback, "GET", "/debug/pprof/goroutine?debug=1", 200, []string{"goroutine"}},
		{"pprof off", bare, loopback, "GET", "/debug/pprof/goroutine?debug=1", 404, nil},
		{"document", bare, loopback, "GET", "/index.html", 200, []string{"home"}},
		{"status remote", full, "10.9.9.9", "GET", "/gaa/status", 403, nil},
		{"reload remote", full, "10.9.9.9", "POST", "/gaa/reload", 403, nil},
		{"healthz remote", full, "10.9.9.9", "GET", HealthzPath, 403, nil},
		{"replicate remote", full, "10.9.9.9", "POST", cluster.ReplicatePath, 403, nil},
		{"metrics remote", full, "10.9.9.9", "GET", "/gaa/metrics", 403, nil},
		{"pprof remote", full, "10.9.9.9", "GET", "/debug/pprof/goroutine?debug=1", 403, nil},
	} {
		w := adminDo(tc.h, tc.from, tc.method, tc.target)
		if w.Code != tc.code {
			t.Errorf("%s: %s %s from %s = %d, want %d:\n%s", tc.name, tc.method, tc.target, tc.from, w.Code, tc.code, w.Body)
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
	if w := adminDo(st.Handler(), "10.9.9.9", "GET", target); w.Code != http.StatusForbidden {
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
	adminDo(h, "10.9.9.9", "GET", "/index.html")
	adminDo(h, "10.9.9.9", "GET", "/cgi-bin/phf?Qalias=x")

	w := adminDo(h, loopback, "GET", "/gaa/metrics")
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

// forgedPush frames what a peer would push: its hello, then the records.
func forgedPush(t *testing.T, recs ...statestore.Record) []byte {
	t.Helper()
	hello, _ := json.Marshal(map[string]any{"node": "forger", "epoch": 1})
	frames, err := statestore.EncodeFrames(append([]statestore.Record{{Kind: cluster.KindHello, Data: hello}}, recs...))
	if err != nil {
		t.Fatalf("EncodeFrames: %v", err)
	}
	return frames
}

func jsonRecord(t *testing.T, seq uint64, kind string, v any) statestore.Record {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return statestore.Record{Seq: seq, Kind: kind, Data: data}
}

// TestAdminPlane: the admin objects are decided like every request, by
// admin.eacl alone. It grants loopback and denies everyone else, before
// any admin handler runs; the firewall drops a blocked source first;
// and no operator policy an attacker can trip reaches them.
func TestAdminPlane(t *testing.T) {
	escalate := forgedPush(t,
		jsonRecord(t, 1, statestore.KindThreat, ids.Transition{From: ids.Low, To: ids.High, At: time.Now()}),
		jsonRecord(t, 2, statestore.KindBlock, netblock.Event{Addr: "10.1.2.3"}))
	// A legitimate push over the paper's 1000-byte input bound.
	var blocks []statestore.Record
	bulk := forgedPush(t)
	for i := 1; len(bulk) < 2048; i++ {
		blocks = append(blocks, jsonRecord(t, uint64(i), statestore.KindBlock, netblock.Event{Addr: fmt.Sprintf("203.0.113.%d", i)}))
		bulk = forgedPush(t, blocks...)
	}
	node := func() StackConfig {
		return StackConfig{NodeID: "b", ClusterTransport: cluster.NewLoopTransport()}
	}
	sec71 := StackConfig{SystemPolicy: paper.System71, LocalPolicies: map[string]string{"*": paper.Local71}}
	sec72 := StackConfig{SystemPolicy: paper.System72, LocalPolicies: map[string]string{"*": paper.Local72},
		RuntimeValues: map[string]string{"max_input": "1000"}}
	bulkCfg := node()
	bulkCfg.LocalPolicies, bulkCfg.RuntimeValues = sec72.LocalPolicies, sec72.RuntimeValues
	// gaa-httpd's demo deployment with the host-IDS loop and the scorer.
	watched := bulkCfg
	watched.Adaptive = &adaptive.Config{}
	watched.LevelValues = map[ids.Level]map[string]string{
		ids.Low: {"max_input": "1000"}, ids.Medium: {"max_input": "300"}, ids.High: {"max_input": "100"},
	}

	for _, tc := range []struct {
		name                 string
		cfg                  StackConfig
		setup                func(*Stack)
		from, method, target string
		body                 []byte
		repeat               int // sends of the request; 0 is one
		code                 int
		want                 string
		check                func(*Stack) string
	}{
		{name: "forged push from afar", cfg: node(), from: "203.0.113.9", method: "POST", target: cluster.ReplicatePath,
			body: escalate, code: 403, want: "Permission Denied",
			check: func(st *Stack) string {
				if lvl, blocked := st.Threat.Level(), st.Blocks.List(); lvl != ids.Low || len(blocked) > 0 {
					return fmt.Sprintf("push applied: threat %v, blocks %v", lvl, blocked)
				}
				return ""
			}},
		{name: "push from loopback", cfg: node(), from: loopback, method: "POST", target: cluster.ReplicatePath,
			body: escalate, code: 200,
			check: func(st *Stack) string {
				if lvl := st.Threat.Level(); lvl != ids.High || !st.Blocks.Blocked("10.1.2.3") {
					return fmt.Sprintf("push not applied: threat %v, blocks %v", lvl, st.Blocks.List())
				}
				return ""
			}},
		{name: "blocked source", setup: func(st *Stack) { st.Blocks.Block(loopback, 0) },
			from: loopback, method: "GET", target: "/gaa/status", code: 403, want: "address blocked",
			check: func(st *Stack) string {
				if recs := st.Audit.Records(); len(recs) > 0 {
					return fmt.Sprintf("firewall drop audited: %+v", recs)
				}
				return ""
			}},
		{name: "7.1 at high: status", cfg: sec71, setup: func(st *Stack) { st.Threat.Set(ids.High) },
			from: loopback, method: "GET", target: "/gaa/status", code: 200, want: "threat level: high"},
		{name: "7.1 at high: healthz", cfg: sec71, setup: func(st *Stack) { st.Threat.Set(ids.High) },
			from: loopback, method: "GET", target: HealthzPath, code: 200, want: `"ready":true`},
		{name: "7.1 at high: remote", cfg: sec71, setup: func(st *Stack) { st.Threat.Set(ids.High) },
			from: "10.0.0.5", method: "GET", target: "/gaa/status", code: 403},
		{name: "7.2 loopback blacklisted: status", cfg: sec72, setup: func(st *Stack) { st.Groups.Add("BadGuys", loopback) },
			from: loopback, method: "GET", target: "/gaa/status", code: 200, want: "BadGuys: 127.0.0.1"},
		{name: "7.2 loopback blacklisted: healthz", cfg: sec72, setup: func(st *Stack) { st.Groups.Add("BadGuys", loopback) },
			from: loopback, method: "GET", target: HealthzPath, code: 200},
		{name: "7.2 remote", cfg: sec72, from: "10.0.0.5", method: "GET", target: HealthzPath, code: 403},
		{name: "7.2 push over max_input", cfg: bulkCfg, from: loopback, method: "POST", target: cluster.ReplicatePath,
			body: bulk, code: 200,
			check: func(st *Stack) string {
				if st.Groups.Contains("BadGuys", loopback) || st.Blocks.Blocked(loopback) {
					return "the pushing peer was blacklisted or blocked"
				}
				if !st.Blocks.Blocked("203.0.113.1") {
					return "push not applied"
				}
				return ""
			}},
		// The fleet's own traffic is audited but is no evidence: three
		// pushes over abnormalInputLength within a minute would otherwise
		// escalate the host IDS, tighten max_input and score the peer.
		{name: "pushes under the host IDS", cfg: watched, from: loopback, method: "POST", target: cluster.ReplicatePath,
			body: bulk, repeat: 3, code: 200,
			check: func(st *Stack) string {
				v, _ := st.Values.LookupValue("max_input")
				if lvl := st.Threat.Level(); lvl != ids.Low || v != "1000" || st.Blocks.Blocked(loopback) {
					return fmt.Sprintf("pushes escalated: threat %v, max_input %s, blocks %v", lvl, v, st.Blocks.List())
				}
				_, health := st.Reloader.health.Rate()
				if n, score, audited := st.Bus.Published(), st.Scorer.SourceScore(loopback), len(st.Audit.Records()); n != 0 || score != 0 || health != 0 || audited != 3 {
					return fmt.Sprintf("bus reports %d, scorer %v, health observations %d, audit records %d; want 0, 0, 0, 3", n, score, health, audited)
				}
				return ""
			}},
		{name: "pprof index", cfg: StackConfig{Pprof: true}, from: loopback, method: "GET", target: "/debug/pprof/", code: 200, want: "allocs"},
		{name: "pprof profile by name", cfg: StackConfig{Pprof: true}, from: loopback, method: "GET", target: "/debug/pprof/allocs?debug=1", code: 200, want: "heap profile"},
		{name: "pprof from afar", cfg: StackConfig{Pprof: true}, from: "10.0.0.5", method: "GET", target: "/debug/pprof/allocs", code: 403},
		{name: "respelled object", from: loopback, method: "GET", target: "/gaa//status", code: 200, want: "threat level: low"},
		{name: "respelled object from afar", from: "10.0.0.5", method: "GET", target: "/gaa//status", code: 403},
	} {
		st, err := NewStack(tc.cfg)
		if err != nil {
			t.Fatalf("%s: NewStack: %v", tc.name, err)
		}
		if tc.setup != nil {
			tc.setup(st)
		}
		var w *httptest.ResponseRecorder
		for range max(tc.repeat, 1) {
			req := httptest.NewRequest(tc.method, tc.target, bytes.NewReader(tc.body))
			req.RemoteAddr = tc.from + ":40000"
			w = httptest.NewRecorder()
			st.Handler().ServeHTTP(w, req)
		}
		if w.Code != tc.code || !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: %s %s from %s = %d, want %d with %q:\n%s", tc.name, tc.method, tc.target, tc.from, w.Code, tc.code, tc.want, w.Body)
		}
		if tc.check != nil {
			if msg := tc.check(st); msg != "" {
				t.Errorf("%s: %s", tc.name, msg)
			}
		}
		st.Close()
	}
}

// TestAdminPolicyProved: the shipped admin.eacl grants nothing a
// location condition did not decide, has no dead entry, and lints clean
// against the stack's own vocabulary. (no-anonymous-yes would be
// refuted by design: anonymous loopback is granted.)
func TestAdminPolicyProved(t *testing.T) {
	admin, err := eacl.ParseString(adminEACL)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := reason.New([]*eacl.EACL{admin}, nil, reason.Options{})
	if err != nil {
		t.Fatalf("reason.New: %v", err)
	}
	q, err := reason.ParseQuery("reachable-without(location)")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.Answer(q); err != nil || res.Satisfiable || res.Truncated {
		t.Errorf("reachable-without(location) = %+v, %v; want unsatisfiable over every world", res, err)
	}
	if res, err := eng.Prove("no-dead-entries"); err != nil || res.Result != reason.Proved {
		t.Errorf("no-dead-entries = %+v, %v; want proved", res, err)
	}
	st := adminStack(t, StackConfig{})
	a := analysis.New()
	diags := a.AnalyzeFile(&analysis.File{EACL: admin, Known: st.API.Known})
	diags = append(diags, a.AnalyzeComposition(analysis.NewComposition([]*eacl.EACL{admin}, nil))...)
	for _, d := range diags {
		t.Errorf("admin.eacl: %s", d)
	}
}
