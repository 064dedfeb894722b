package gaahttp

import (
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gaaapi/internal/gaa"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids"
	"gaaapi/policies/paper"
)

// policy72Local is a variant of the paper's section 7.2 local policy
// (policies/paper) with a literal input bound and fewer signatures;
// the tests pair it with the shipped system policy, paper.System72.
const policy72Local = `
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

func lockdownStack(t *testing.T) *Stack {
	t.Helper()
	st, err := NewStack(StackConfig{
		SystemPolicy: paper.System71,
		LocalPolicies: map[string]string{
			"*": paper.Local71,
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
		SystemPolicy: paper.System72,
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
		SystemPolicy: paper.System71, // deny all at high threat
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
	correlator := ids.NewCorrelator(st.Threat, ids.CorrelatorConfig{HighAfter: 1})

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

// TestAnomalyTrainingThroughGuard: a guard given a detector trains it
// once per grant.
func TestAnomalyTrainingThroughGuard(t *testing.T) {
	g, det, _ := anomalyGuard(t)
	for i := 0; i < 5; i++ {
		req := httptest.NewRequest("GET", "/index.html", nil)
		req.RemoteAddr = "10.4.4.4:1"
		g.Check(httpd.NewRequestRec(req, nil, time.Now()))
	}
	if n := det.Trained("10.4.4.4"); n != 5 {
		t.Errorf("trained observations = %d, want 5", n)
	}
}

// TestGuardRightsLabelConcurrentFill races the first checks of fresh
// cached policies: GETs and HEADs of one object arrive at once, one of
// them fills the policy's rights memo with its label and the others read
// it or build their own. Every audit record must name its own request's
// right. Run under -race -cpu 1,4.
func TestGuardRightsLabelConcurrentFill(t *testing.T) {
	st, err := NewStack(StackConfig{
		SystemPolicy:  paper.System72,
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

// BenchmarkStackFirstContact times a first-contact probe of each of
// siege's four attack classes through Stack.Server with a state
// directory, each from a fresh source: the requests whose allocations
// TestCost's first-contact rows count.
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

// firstContactAttacks are siege's attack classes.
var firstContactAttacks = []struct{ name, target string }{
	{"phf", "/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd"},
	{"nimda", "/scripts/..%c0%af../winnt/system32/cmd.exe?/c+dir"},
	{"slash flood", "/" + strings.Repeat("/", 40) + "index.html"},
	{"overflow", "/cgi-bin/search?q=" + strings.Repeat("A", 1200)},
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
