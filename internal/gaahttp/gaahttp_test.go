package gaahttp

import (
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gaaapi/internal/gaa"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
)

// policy71System / policy71Local are the paper's section 7.1 policies.
const (
	policy71System = `
eacl_mode narrow
neg_access_right * *
pre_cond_system_threat_level local =high
`
	policy71Local = `
pos_access_right apache *
pre_cond_system_threat_level local >low
pre_cond_accessid_USER apache *
`
)

// policy72Local is the paper's section 7.2 local policy (the BadGuys
// system policy is policy72System).
const (
	policy72System = `
eacl_mode narrow
neg_access_right * *
pre_cond_accessid_GROUP local BadGuys
`
	policy72Local = `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *///////////////////* *%c0%af* *%255c*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:IP
neg_access_right apache *
pre_cond_expr local input_length>1000
rr_cond_notify local on:failure/sysadmin/info:overflow
rr_cond_update_log local on:failure/BadGuys/info:IP
pos_access_right apache *
`
)

func lockdownStack(t *testing.T) *Stack {
	t.Helper()
	st, err := NewStack(StackConfig{
		SystemPolicy: policy71System,
		LocalPolicies: map[string]string{
			"*": policy71Local,
		},
		DocRoot: map[string]string{
			"/public/index.html": "public content",
			"/index.html":        "home",
		},
		Htaccess: map[string]string{
			// Native mixed access: /public open, /private needs auth.
			"private": "Require valid-user\n",
		},
		Users: map[string]string{"alice": "wonderland"},
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	return st
}

func get(t *testing.T, s *httpd.Server, target, user, pass string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", target, nil)
	req.RemoteAddr = "10.1.2.3:40000"
	if user != "" {
		tok := base64.StdEncoding.EncodeToString([]byte(user + ":" + pass))
		req.Header.Set("Authorization", "Basic "+tok)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestPaperSection71NetworkLockdown drives the lockdown scenario over
// HTTP at each threat level.
func TestPaperSection71NetworkLockdown(t *testing.T) {
	st := lockdownStack(t)
	defer st.Close()

	// Threat LOW: the GAA policy has no applicable entry -> DECLINED ->
	// native mixed access applies.
	st.Threat.Set(ids.Low)
	if w := get(t, st.Server, "/public/index.html", "", ""); w.Code != http.StatusOK {
		t.Errorf("low/public/anon = %d, want 200", w.Code)
	}
	if w := get(t, st.Server, "/index.html", "", ""); w.Code != http.StatusOK {
		t.Errorf("low/home/anon = %d, want 200 (no htaccess)", w.Code)
	}

	// Threat MEDIUM: lockdown — every access requires authentication.
	st.Threat.Set(ids.Medium)
	w := get(t, st.Server, "/public/index.html", "", "")
	if w.Code != http.StatusUnauthorized {
		t.Errorf("medium/public/anon = %d, want 401", w.Code)
	}
	if got := w.Header().Get("WWW-Authenticate"); got == "" {
		t.Error("medium/anon: missing WWW-Authenticate challenge")
	}
	if w := get(t, st.Server, "/public/index.html", "alice", "wonderland"); w.Code != http.StatusOK {
		t.Errorf("medium/public/auth = %d, want 200", w.Code)
	}
	if w := get(t, st.Server, "/public/index.html", "alice", "wrongpw"); w.Code != http.StatusUnauthorized {
		t.Errorf("medium/public/badpw = %d, want 401", w.Code)
	}

	// Threat HIGH: the mandatory system-wide policy denies everyone.
	st.Threat.Set(ids.High)
	if w := get(t, st.Server, "/public/index.html", "alice", "wonderland"); w.Code != http.StatusForbidden {
		t.Errorf("high/auth = %d, want 403 (lockdown is mandatory)", w.Code)
	}
	if w := get(t, st.Server, "/public/index.html", "", ""); w.Code != http.StatusForbidden {
		t.Errorf("high/anon = %d, want 403", w.Code)
	}
}

func cgiStack(t *testing.T) *Stack {
	t.Helper()
	st, err := NewStack(StackConfig{
		SystemPolicy: policy72System,
		LocalPolicies: map[string]string{
			"*": policy72Local,
		},
		DocRoot:          map[string]string{"/index.html": "home"},
		SensitiveObjects: []string{"/cgi-bin/*"},
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	return st
}

// TestPaperSection72CGIProtection drives the CGI-abuse scenario over
// HTTP: detection, response, blacklist propagation.
func TestPaperSection72CGIProtection(t *testing.T) {
	st := cgiStack(t)
	defer st.Close()

	// The phf exploit is blocked before execution.
	w := get(t, st.Server, "/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd", "", "")
	if w.Code != http.StatusForbidden {
		t.Fatalf("phf = %d, want 403", w.Code)
	}
	if strings.Contains(w.Body.String(), "root:x:") {
		t.Fatal("exploit output leaked despite denial")
	}
	if st.Mailbox.Count() != 1 {
		t.Errorf("notifications = %d, want 1", st.Mailbox.Count())
	}
	if !st.Groups.Contains("BadGuys", "10.1.2.3") {
		t.Error("attacker not blacklisted")
	}

	// Follow-up with an unknown signature from the same host: denied by
	// the system-wide blacklist.
	if w := get(t, st.Server, "/cgi-bin/search?q=zero-day", "", ""); w.Code != http.StatusForbidden {
		t.Errorf("blacklisted follow-up = %d, want 403", w.Code)
	}

	// Legitimate traffic from clean clients flows.
	req := httptest.NewRequest("GET", "/cgi-bin/search?q=hello", nil)
	req.RemoteAddr = "10.9.9.9:1234"
	rec := httptest.NewRecorder()
	st.Server.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("clean client = %d, want 200", rec.Code)
	}
}

func TestSection72AttackClasses(t *testing.T) {
	tests := []struct {
		name   string
		target string
	}{
		{"phf", "/cgi-bin/phf?Qalias=x"},
		{"test-cgi", "/cgi-bin/test-cgi?*"},
		{"slash flood", "/cgi-bin/search" + strings.Repeat("/", 30)},
		{"nimda traversal", "/cgi-bin/..%c0%af..%c0%afwinnt?cmd"},
		{"buffer overflow", "/cgi-bin/search?q=" + strings.Repeat("A", 1200)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st := cgiStack(t)
			defer st.Close()
			if w := get(t, st.Server, tt.target, "", ""); w.Code != http.StatusForbidden {
				t.Errorf("%s = %d, want 403", tt.target, w.Code)
			}
			if st.Groups.Len("BadGuys") != 1 {
				t.Errorf("blacklist size = %d, want 1", st.Groups.Len("BadGuys"))
			}
		})
	}
}

// TestAdaptiveRedirect reproduces the paper's section 6 MAYBE handling:
// a pre_cond_redirect left unevaluated becomes HTTP_MOVED.
func TestAdaptiveRedirect(t *testing.T) {
	st, err := NewStack(StackConfig{
		LocalPolicies: map[string]string{
			"/mirror/*": `
pos_access_right apache *
pre_cond_location local 10.0.0.0/8
pre_cond_redirect local http://mirror-west.example.org/
`,
		},
		DocRoot: map[string]string{"/mirror/data.html": "data"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	w := get(t, st.Server, "/mirror/data.html", "", "")
	if w.Code != http.StatusFound {
		t.Fatalf("redirect policy = %d, want 302", w.Code)
	}
	if got := w.Header().Get("Location"); got != "http://mirror-west.example.org/" {
		t.Errorf("Location = %q", got)
	}

	// A client outside the selector's range falls through to DECLINED
	// (default allow, no htaccess).
	req := httptest.NewRequest("GET", "/mirror/data.html", nil)
	req.RemoteAddr = "99.1.1.1:5"
	rec := httptest.NewRecorder()
	st.Server.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("outside selector = %d, want 200", rec.Code)
	}
}

// TestExecutionControlThroughStack wires a mid-condition quota through
// the whole stack: a runaway CGI is aborted.
func TestExecutionControlThroughStack(t *testing.T) {
	st, err := NewStack(StackConfig{
		LocalPolicies: map[string]string{
			"*": `
pos_access_right apache *
mid_cond_quota local cpu_ms<=50
`,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	w := get(t, st.Server, "/cgi-bin/spin", "", "")
	if w.Code != http.StatusInternalServerError {
		t.Errorf("runaway = %d, want 500 (aborted by mid-condition)", w.Code)
	}
	// A cheap script is unaffected.
	if w := get(t, st.Server, "/cgi-bin/search?q=x", "", ""); w.Code != http.StatusOK {
		t.Errorf("cheap script = %d, want 200", w.Code)
	}
}

// TestPostConditionsThroughStack: a post_cond_audit record appears
// after the operation completes, tagged with the operation status.
func TestPostConditionsThroughStack(t *testing.T) {
	st, err := NewStack(StackConfig{
		LocalPolicies: map[string]string{
			"*": `
pos_access_right apache *
post_cond_audit local on:any/info:op-finished
`,
		},
		DocRoot: map[string]string{"/index.html": "home"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	get(t, st.Server, "/index.html", "", "")
	var found bool
	for _, r := range st.Audit.Records() {
		if r.Kind == "post_execution" && r.Info == "op-finished" {
			found = true
		}
	}
	if !found {
		t.Errorf("no post-execution audit record; records = %+v", st.Audit.Records())
	}
}

// TestIDSReporting verifies the section 3 report classes reach the bus
// and the correlator escalates the threat level, which in turn locks
// the system down (the full feedback loop).
func TestIDSFeedbackLoop(t *testing.T) {
	st, err := NewStack(StackConfig{
		SystemPolicy: policy71System, // deny all at high threat
		LocalPolicies: map[string]string{
			"*": policy72Local, // signature detection
		},
		DocRoot: map[string]string{"/index.html": "home"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	reports := collectReports(st.Bus)
	correlator := ids.NewCorrelator(st.Threat, ids.DefaultCorrelatorConfig())

	// One high-severity attack...
	w := get(t, st.Server, "/cgi-bin/phf?Qalias=x", "", "")
	if w.Code != http.StatusForbidden {
		t.Fatalf("attack = %d, want 403", w.Code)
	}
	var sawAttack bool
	for _, r := range *reports {
		correlator.Observe(r)
		if r.Kind == ids.DetectedAttack && r.Signature == "phf" {
			sawAttack = true
		}
	}
	if !sawAttack {
		t.Fatal("no detected_attack report on the bus")
	}
	if st.Threat.Level() != ids.High {
		t.Fatalf("threat level = %v, want high after attack", st.Threat.Level())
	}
	// ...and now the mandatory lockdown denies even clean requests.
	req := httptest.NewRequest("GET", "/index.html", nil)
	req.RemoteAddr = "10.9.9.9:1"
	rec := httptest.NewRecorder()
	st.Server.ServeHTTP(rec, req)
	if rec.Code != http.StatusForbidden {
		t.Errorf("clean request at high threat = %d, want 403", rec.Code)
	}
}

func TestReportKindsPublished(t *testing.T) {
	st := cgiStack(t)
	defer st.Close()
	reports := collectReports(st.Bus)

	// Legitimate request -> legitimate_pattern.
	req := httptest.NewRequest("GET", "/index.html", nil)
	req.RemoteAddr = "10.9.9.9:1"
	st.Server.ServeHTTP(httptest.NewRecorder(), req)

	// Oversized input -> abnormal_parameters (plus the deny reports).
	get(t, st.Server, "/cgi-bin/search?q="+strings.Repeat("B", 1500), "", "")

	// Sensitive-object denial -> sensitive_access_denial.
	get(t, st.Server, "/cgi-bin/phf?x", "", "")

	kinds := make(map[ids.ReportKind]int)
	for _, r := range *reports {
		kinds[r.Kind]++
	}
	for _, want := range []ids.ReportKind{
		ids.LegitimatePattern, ids.AbnormalParameters,
		ids.SensitiveAccessDenial, ids.DetectedAttack,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %v report published; got %v", want, kinds)
		}
	}
}

// collectReports records every report st's guard publishes, in order;
// the bus calls it on the request, so the slice is complete when the
// request returns.
func collectReports(b *ids.Bus) *[]ids.Report {
	var reports []ids.Report
	b.OnReport(func(r ids.Report) { reports = append(reports, r) })
	return &reports
}

func TestTranslate(t *testing.T) {
	tests := []struct {
		name string
		ans  *gaa.Answer
		want httpd.StatusKind
	}{
		{"yes", &gaa.Answer{Decision: gaa.Yes}, httpd.StatusOK},
		{"no", &gaa.Answer{Decision: gaa.No}, httpd.StatusForbidden},
		{"no with challenge", &gaa.Answer{Decision: gaa.No, Challenge: "Basic"}, httpd.StatusAuthRequired},
		{"maybe", &gaa.Answer{Decision: gaa.Maybe}, httpd.StatusDeclined},
	}
	for _, tt := range tests {
		if got := translate(tt.ans); got.Kind != tt.want {
			t.Errorf("%s: translate = %v, want %v", tt.name, got.Kind, tt.want)
		}
	}
}

func TestExtractParams(t *testing.T) {
	req := httptest.NewRequest("GET", "/cgi-bin/phf?a=b", nil)
	req.RemoteAddr = "1.2.3.4:55"
	rec := httpd.NewRequestRec(req, nil, time.Now())
	ps := ExtractParams(rec)
	checks := map[string]string{
		gaa.ParamClientIP:   "1.2.3.4",
		gaa.ParamMethod:     "GET",
		gaa.ParamQuery:      "a=b",
		gaa.ParamObject:     "/cgi-bin/phf",
		gaa.ParamRequestURI: "GET /cgi-bin/phf?a=b",
	}
	for typ, want := range checks {
		if got, ok := ps.Get(typ, gaa.AuthorityAny); !ok || got != want {
			t.Errorf("param %s = %q (%v), want %q", typ, got, ok, want)
		}
	}
	if _, ok := ps.Get(gaa.ParamUser, gaa.AuthorityAny); ok {
		t.Error("anonymous request should not carry a user param")
	}
}

func TestIllFormedDetection(t *testing.T) {
	g := New(Config{API: gaa.New()})
	base := &httpd.RequestRec{URI: "GET /index.html", HeaderCount: 3}
	if g.illFormed(base) {
		t.Error("normal request flagged ill-formed")
	}
	many := &httpd.RequestRec{URI: "GET /", HeaderCount: 500}
	if !g.illFormed(many) {
		t.Error("excessive headers not flagged")
	}
	ctrl := &httpd.RequestRec{URI: "GET /\x01evil", HeaderCount: 1}
	if !g.illFormed(ctrl) {
		t.Error("control characters not flagged")
	}
	backslash := &httpd.RequestRec{URI: `GET /..\..\cmd`, HeaderCount: 1}
	if !g.illFormed(backslash) {
		t.Error("backslash traversal not flagged")
	}
	// Past the first word and at every offset in one: a control byte or
	// a backslash is ill-formed, a tab, a quote or a byte of 0x80 or
	// more is not.
	for off := 0; off < 24; off++ {
		for b, want := range map[string]bool{"\x01": true, "\x1f": true, "\x00": true, `\`: true, "\t": false, `"`: false, "\x7f": false, "\x80": false, "\xff": false, "é": false} {
			uri := "GET /" + strings.Repeat("a", off) + b + "/tail.html"
			if got := g.illFormed(&httpd.RequestRec{URI: uri, HeaderCount: 1}); got != want {
				t.Errorf("illFormed(%q) = %v, want %v", uri, got, want)
			}
		}
	}
}

func TestStackConfigErrors(t *testing.T) {
	if _, err := NewStack(StackConfig{SystemPolicy: "pre_cond_x y"}); err == nil {
		t.Error("want error for bad system policy")
	}
	if _, err := NewStack(StackConfig{LocalPolicies: map[string]string{"*": "bogus"}}); err == nil {
		t.Error("want error for bad local policy")
	}
	if _, err := NewStack(StackConfig{Htaccess: map[string]string{"": "Bogus x"}}); err == nil {
		t.Error("want error for bad htaccess")
	}
}

func TestAnomalyTrainingThroughGuard(t *testing.T) {
	st, err := NewStack(StackConfig{
		LocalPolicies: map[string]string{"*": "pos_access_right apache *"},
		DocRoot:       map[string]string{"/index.html": "home"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 5; i++ {
		req := httptest.NewRequest("GET", "/index.html", nil)
		req.RemoteAddr = "10.4.4.4:1"
		st.Server.ServeHTTP(httptest.NewRecorder(), req)
	}
	if n := st.Anomaly.Trained("10.4.4.4"); n != 5 {
		t.Errorf("trained observations = %d, want 5", n)
	}
}

// TestGuardCheckCachedGrantZeroAlloc pins a cached grant through the
// guard at no allocation: the "<authority> <METHOD> <path>" string that
// is both the audit record's right and, sliced, the requested one is
// the cached policy's, kept in its rights memo by the check that filled
// it (built on every check, it was 1). A HEAD after the GET that filled
// the memo builds its own (1). The metrics layer and the adaptive
// scorer, which scores the sample inline, ride the same path and must
// add nothing to it.
func TestGuardCheckCachedGrantZeroAlloc(t *testing.T) {
	scorer := adaptive.Defaults()
	for _, tc := range []struct {
		name     string
		metrics  bool
		adaptive *adaptive.Config
	}{
		{"plain", false, nil},
		{"metrics", true, nil},
		{"scorer", false, &scorer},
		{"metrics+scorer", true, &scorer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStack(StackConfig{
				SystemPolicy:  policy72System,
				LocalPolicies: map[string]string{"*": policy72Local},
				DocRoot:       map[string]string{"/index.html": "home"},
				PolicyCache:   true,
				Metrics:       tc.metrics,
				Adaptive:      tc.adaptive,
			})
			if err != nil {
				t.Fatalf("NewStack: %v", err)
			}
			defer st.Close()
			for _, row := range []struct {
				method, right string
				want          float64
			}{
				{"GET", "apache GET /index.html", 0},
				{"HEAD", "apache HEAD /index.html", 1},
			} {
				rec := &httpd.RequestRec{
					Time:     time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC),
					Method:   row.method,
					Path:     "/index.html",
					URI:      row.method + " /index.html",
					ClientIP: "10.0.0.1",
				}
				for i := 0; i < 2; i++ { // the first GET fills the memo
					if v := st.Guard.Check(rec); v.Status.Kind != httpd.StatusOK {
						t.Fatalf("%s: Check = %+v, want OK", row.method, v.Status)
					}
					recs := st.Audit.Records()
					if len(recs) == 0 || recs[len(recs)-1].Right != row.right {
						t.Fatalf("audit records = %+v, want a last one with right %q", recs, row.right)
					}
				}
				if raceEnabled {
					continue // sync.Pool drops 1 in 4 Puts under race; pooled paths allocate by design there
				}
				if allocs := testing.AllocsPerRun(2000, func() { st.Guard.Check(rec) }); allocs != row.want {
					t.Errorf("cached %s grant through Guard.Check allocates %v, want %v", row.method, allocs, row.want)
				}
			}
		})
	}
}

// TestGuardRightsLabelConcurrentFill races the first checks of fresh
// cached policies: GETs and HEADs of one object arrive at once, one of
// them fills the policy's rights memo with its label and the others read
// it or build their own. Every audit record must name its own request's
// right. Run under -race -cpu 1,4.
func TestGuardRightsLabelConcurrentFill(t *testing.T) {
	st, err := NewStack(StackConfig{
		SystemPolicy:  policy72System,
		LocalPolicies: map[string]string{"*": policy72Local},
		PolicyCache:   true,
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	defer st.Close()
	const workers, checks = 8, 4
	methods := [2]string{"GET", "HEAD"}
	for round := 0; round < 20; round++ {
		path := fmt.Sprintf("/doc%d.html", round)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			rec := &httpd.RequestRec{
				Time:     time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC),
				Method:   methods[w%2],
				Path:     path,
				URI:      methods[w%2] + " " + path,
				ClientIP: fmt.Sprintf("10.0.0.%d", w),
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < checks; i++ {
					if v := st.Guard.Check(rec); v.Status.Kind != httpd.StatusOK {
						t.Errorf("%s %s: %+v, want OK", rec.Method, path, v.Status)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		n := 0
		for _, r := range st.Audit.Records() {
			if r.Kind != "gaa_check_authorization" || r.Object != path {
				continue
			}
			n++
			var w int
			if _, err := fmt.Sscanf(r.ClientIP, "10.0.0.%d", &w); err != nil || w < 0 || w >= workers {
				t.Fatalf("audit record from %q", r.ClientIP)
			}
			if want := "apache " + methods[w%2] + " " + path; r.Right != want {
				t.Errorf("round %d: %s's record names %q, want %q", round, r.ClientIP, r.Right, want)
			}
		}
		if n != workers*checks {
			t.Fatalf("round %d: %d audit records for %s, want %d", round, n, path, workers*checks)
		}
	}
}

// browseSystem / browseLocal are the paper's section 7 policies as the
// benchmark's browse workload deploys them (benchmark/deploy.go): CGI is
// granted under an execution quota with a post-execution audit of
// failed scripts.
const (
	browseSystem = `eacl_mode narrow
neg_access_right * *
pre_cond_system_threat_level local =high
neg_access_right * *
pre_cond_accessid_GROUP local BadGuys
`
	browseLocal = `neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *///////////////////* *%c0%af* *%255c* *cmd.exe* *root.exe*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_block_ip local on:failure
rr_cond_audit local on:failure/info:cgiexploit
neg_access_right apache *
pre_cond_expr local input_length>1000
rr_cond_notify local on:failure/sysadmin/info:overflow
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_block_ip local on:failure
rr_cond_audit local on:failure/info:overflow
pos_access_right apache GET /cgi-bin/*
mid_cond_quota local cpu_ms<=250
post_cond_audit local on:failure/info:cgi-failed
pos_access_right apache *
`
)

// nullResponse is a reusable response sink.
type nullResponse struct {
	header http.Header
	code   int
}

func (w *nullResponse) Header() http.Header         { return w.header }
func (w *nullResponse) WriteHeader(code int)        { w.code = code }
func (w *nullResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestStackCGIGrantAllocs pins the request kinds of the benchmark's
// browse and siege streams through the whole deployment —
// Stack.Handler(), metrics, policy cache and a discarded access log, as
// gaa-httpd runs it — at their exact allocation counts. Only what
// outlives the request allocates:
//
//   - a document grant (1): the record's request line, which the
//     decision's parameters carry (the audit record's right is the
//     cached policy's, TestGuardCheckCachedGrantZeroAlloc);
//   - a monitored CGI grant (3): the request line, the script's
//     formatted argument and the usage value "1120" (below 100 it is a
//     constant);
//   - a source the firewall drops (0): it is turned away before the
//     request line is built, and the 403's body is not copied.
//
// The hooked CGI request is the one path that holds the guard's pooled
// check state across phases: losing the recycling in Verdict.Post, or
// the reuse of the answer's Mid/Post arrays, shows here. The document
// was 2 and the CGI grant 4 while every check built the audit record's
// right; the document 4 while MapRoot cleaned "/"+path; the CGI grant 8
// while the later phases copied their parameter lists and the operation
// had a context of its own, 21 with Run's goroutine; the drop 2.
func TestStackCGIGrantAllocs(t *testing.T) {
	st, err := NewStack(StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		DocRoot:       map[string]string{"/index.html": "home"},
		PolicyCache:   true,
		Metrics:       true,
		AccessLog:     io.Discard,
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	defer st.Close()
	h := st.Handler()
	st.Blocks.Block("10.0.0.66", 0)
	for _, tc := range []struct {
		name, target, ip string
		code             int
		want             float64
	}{
		{"document grant", "/index.html", "10.0.0.1", http.StatusOK, 1},
		{"CGI grant", "/cgi-bin/search?q=eacl", "10.0.0.1", http.StatusOK, 3},
		{"firewall drop", "/index.html", "10.0.0.66", http.StatusForbidden, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest("GET", tc.target, nil)
			req.RemoteAddr = tc.ip + ":40000"
			rw := &nullResponse{header: make(http.Header)}
			serve := func() {
				rw.code = 0
				h.ServeHTTP(rw, req)
				if rw.code != tc.code {
					t.Fatalf("%s answered %d, want %d", tc.target, rw.code, tc.code)
				}
			}
			serve()
			if raceEnabled {
				t.Skip("sync.Pool drops 1 in 4 Puts under race; pooled paths allocate by design there")
			}
			if allocs := testing.AllocsPerRun(500, serve); allocs != tc.want {
				t.Errorf("%s through Stack.Handler() allocates %v, want %v", tc.name, allocs, tc.want)
			}
		})
	}
}

// TestGuardCheckDenyAllocs pins a section 7.2 deny through Guard.Check
// — the phf probe, with the local policy's notify, blacklist, firewall
// block and audit responses — at what the responses keep: the alert's
// subject and body (2). The body is built in the string the alert keeps
// and the audit record's right is the request's label, 4 while the body
// went through a buffer of its own and the audit action built the
// right. The guard's own "<authority> <METHOD> <path>" is the cached
// policy's (5 while every check built it), 17 while every action split
// its value and built a detail string no untraced request reads, 6
// while the IDS report asked the signature database for every hit to
// read the first.
func TestGuardCheckDenyAllocs(t *testing.T) {
	st, err := NewStack(StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		PolicyCache:   true,
		Metrics:       true,
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	defer st.Close()
	rec := httpd.NewRequestRec(newRequest("/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd", "10.9.9.9"), nil, time.Now())
	deny := func() {
		if v := st.Guard.Check(rec); v.Status.Kind != httpd.StatusForbidden {
			t.Fatalf("phf probe: %+v, want forbidden", v.Status)
		}
	}
	deny()
	if raceEnabled {
		t.Skip("sync.Pool drops 1 in 4 Puts under race; pooled paths allocate by design there")
	}
	const want = 2
	if allocs := testing.AllocsPerRun(500, deny); allocs != want {
		t.Errorf("section 7.2 deny through Guard.Check allocates %v, want %d: the alert's subject and body "+
			"(the body's separate buffer and the audit right are deleted)", allocs, want)
	}
}

// TestStackFirstContactAttackAllocs pins a first-contact probe of each
// of siege's four attack classes from a source the server has not seen,
// through Stack.Server with a state directory as the siege workload runs
// it: the probe is denied, its source notified, blacklisted, blocked and
// audited, and the block and the membership are journaled. The journal
// records render into the store's frame buffer, and the guard's
// "<authority> <METHOD> <path>" is the cached policy's, so a probe costs
// the request line and what the responses keep, the alert's subject and
// body (3); the overflow also spells its input length, 1202, into a
// parameter and an abnormal-parameters report (6). The slash flood's
// object is sliced out of its path, not copied. phf was 5 while the
// alert body went through a buffer of its own and the audit action built
// its right, 6 while every check built the guard's string, 11 while each
// record was boxed and handed to json.Marshal.
func TestStackFirstContactAttackAllocs(t *testing.T) {
	st := firstContactStack(t)
	// Per class: one probe here, one AllocsPerRun warms up with, then
	// the runs.
	const runs = 500
	sources := firstContactSources(4 * (runs + 2))
	for _, attack := range firstContactAttacks {
		probe := firstContactProbe(t, st, attack.target, &sources)
		probe()
		if raceEnabled {
			t.Skip("sync.Pool drops 1 in 4 Puts under race; pooled paths allocate by design there")
		}
		if allocs := testing.AllocsPerRun(runs, probe); allocs != attack.allocs {
			t.Errorf("a first-contact %s probe through Stack.Server allocates %v, want %v", attack.name, allocs, attack.allocs)
		}
	}
	if n := st.Store.Stats().Appends; n < 2*4*(runs+2) {
		t.Errorf("%d probes journaled %d records, want two each", 4*(runs+2), n)
	}
}

// BenchmarkStackFirstContact times a first-contact probe of each of
// siege's four attack classes through Stack.Server with a state
// directory, each from a fresh source: the requests whose allocations
// TestStackFirstContactAttackAllocs counts.
func BenchmarkStackFirstContact(b *testing.B) {
	st := firstContactStack(b)
	for _, attack := range firstContactAttacks {
		b.Run(attack.name, func(b *testing.B) {
			sources := firstContactSources(b.N)
			probe := firstContactProbe(b, st, attack.target, &sources)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probe()
			}
		})
	}
}

// firstContactAttacks are siege's attack classes, with what a probe of
// each allocates.
var firstContactAttacks = []struct {
	name, target string
	allocs       float64
}{
	{"phf", "/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd", 3},
	{"nimda", "/scripts/..%c0%af../winnt/system32/cmd.exe?/c+dir", 3},
	{"slash flood", "/" + strings.Repeat("/", 40) + "index.html", 3},
	{"overflow", "/cgi-bin/search?q=" + strings.Repeat("A", 1200), 6},
}

// firstContactStack is the siege deployment with a state directory.
func firstContactStack(tb testing.TB) *Stack {
	st, err := NewStack(StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		DocRoot:       map[string]string{"/index.html": "home"},
		PolicyCache:   true,
		Metrics:       true,
		AccessLog:     io.Discard,
		StateDir:      tb.TempDir(),
		Fsync:         "interval",
	})
	if err != nil {
		tb.Fatalf("NewStack: %v", err)
	}
	tb.Cleanup(func() { st.Close() })
	return st
}

// firstContactSources returns n distinct source addresses no stack has
// seen, a new run of them on every call.
func firstContactSources(n int) []string {
	out := make([]string, n)
	for i := range out {
		firstContactNext++
		k := firstContactNext
		out[i] = fmt.Sprintf("%d.%d.%d.%d:40000", 11+k>>24, k>>16&255, k>>8&255, k&255)
	}
	return out
}

var firstContactNext int

// firstContactProbe returns a probe of target that takes its source off
// the front of sources and wants a 403.
func firstContactProbe(tb testing.TB, st *Stack, target string, sources *[]string) func() {
	req := httptest.NewRequest("GET", target, nil)
	rw := &nullResponse{header: make(http.Header)}
	return func() {
		req.RemoteAddr, *sources = (*sources)[0], (*sources)[1:]
		rw.code = 0
		st.Server.ServeHTTP(rw, req)
		if rw.code != http.StatusForbidden {
			tb.Fatalf("probe of %s from %s answered %d, want 403", target, req.RemoteAddr, rw.code)
		}
	}
}

// TestStackFileBackedGrantAllocs pins a document grant through the
// deployment gaa-httpd runs from files — system.eacl, per-directory
// .eacl files under the document root (one at the root, none in docs/),
// documents read from disk — on the benchmark's site shape. Per request
// that is one revision check on the cache-hit path (two stats: the root
// and docs/) and one file read; 38 when every stat came wrapped in a
// joined path, a formatted stamp and a described chain, 17 while the
// metrics wrapper allocated its status writer and the operation closure
// escaped into execctl.Run's goroutine.
func TestStackFileBackedGrantAllocs(t *testing.T) {
	dir := t.TempDir()
	site := filepath.Join(dir, "site")
	for name, content := range map[string]string{
		filepath.Join(dir, "system.eacl"):      browseSystem,
		filepath.Join(site, ".eacl"):           browseLocal,
		filepath.Join(site, "index.html"):      "<html>home</html>",
		filepath.Join(site, "docs/guide.html"): "<html>guide</html>",
	} {
		if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := NewStack(StackConfig{
		SystemPolicyFile: filepath.Join(dir, "system.eacl"),
		LocalPolicyDir:   site,
		DocRootDir:       site,
		PolicyCache:      true,
		Metrics:          true,
		AccessLog:        io.Discard,
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	defer st.Close()
	h := st.Handler()
	req := httptest.NewRequest("GET", "/docs/guide.html", nil)
	req.RemoteAddr = "10.0.0.1:40000"
	rw := &nullResponse{header: make(http.Header)}
	serve := func() {
		rw.code = 0
		h.ServeHTTP(rw, req)
		if rw.code != http.StatusOK {
			t.Fatalf("document request answered %d, want 200", rw.code)
		}
	}
	serve()
	if raceEnabled {
		t.Skip("sync.Pool drops 1 in 4 Puts under race; pooled paths allocate by design there")
	}
	const max = 15
	if allocs := testing.AllocsPerRun(500, serve); allocs > max {
		t.Errorf("file-backed document grant through Stack.Handler() allocates %v, want <= %d", allocs, max)
	}
}

// TestHookedCheckStateIsNotSharedAcrossRequests: the guard's pooled
// check state rides with a CGI request's Monitor and Post hooks and is
// recycled by Post. Concurrent clients whose scripts are aborted by the
// quota must each get their own post-execution audit record — right
// address, right object — however the pool hands states around. Run
// with -race in CI.
func TestHookedCheckStateIsNotSharedAcrossRequests(t *testing.T) {
	st, err := NewStack(StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		DocRoot:       map[string]string{"/index.html": "home"},
		PolicyCache:   true,
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	defer st.Close()
	const workers, rounds = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ip := "10.0.2." + itoa(w+1)
			for i := 0; i < rounds; i++ {
				if code := serveTarget(t, st, "/cgi-bin/search?q=w"+itoa(w), ip); code != http.StatusOK {
					t.Errorf("search from %s = %d, want 200", ip, code)
				}
				if code := serveTarget(t, st, "/cgi-bin/spin", ip); code != http.StatusInternalServerError {
					t.Errorf("runaway script from %s = %d, want 500 (quota abort)", ip, code)
				}
			}
		}(w)
	}
	wg.Wait()
	failed := make(map[string]int)
	for _, r := range st.Audit.Records() {
		if r.Kind != "post_execution" {
			continue
		}
		if r.Object != "/cgi-bin/spin" || r.Right != "apache GET /cgi-bin/spin" || r.Info != "cgi-failed" {
			t.Errorf("post-execution record %+v, want the aborted spin request", r)
		}
		failed[r.ClientIP]++
	}
	for w := 0; w < workers; w++ {
		if ip := "10.0.2." + itoa(w+1); failed[ip] != rounds {
			t.Errorf("post-execution audits for %s = %d, want %d", ip, failed[ip], rounds)
		}
	}
}
