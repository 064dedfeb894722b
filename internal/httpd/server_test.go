package httpd

import (
	"encoding/base64"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/execctl"
	"gaaapi/internal/netblock"
)

func testServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	auth := NewHtpasswd()
	auth.SetPassword("alice", "wonderland")
	cfg := Config{
		DocRoot: map[string]string{
			"/index.html":      "<html>welcome</html>",
			"/docs/guide.html": "guide",
		},
		Scripts: NewDemoRegistry(),
		Auth:    auth,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return NewServer(cfg)
}

func doRequest(t *testing.T, s *Server, method, target string, header map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	req.RemoteAddr = "10.0.0.1:34567"
	for k, v := range header {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func basicHeader(user, pass string) map[string]string {
	tok := base64.StdEncoding.EncodeToString([]byte(user + ":" + pass))
	return map[string]string{"Authorization": "Basic " + tok}
}

func TestServeStatic(t *testing.T) {
	s := testServer(t, nil)
	w := doRequest(t, s, "GET", "/index.html", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "welcome") {
		t.Errorf("GET /index.html = %d %q", w.Code, w.Body.String())
	}
	if w404 := doRequest(t, s, "GET", "/missing.html", nil); w404.Code != http.StatusNotFound {
		t.Errorf("missing document = %d, want 404", w404.Code)
	}
}

func TestServeCGI(t *testing.T) {
	s := testServer(t, nil)
	w := doRequest(t, s, "GET", "/cgi-bin/search?q=gaa", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "results for") {
		t.Errorf("search = %d %q", w.Code, w.Body.String())
	}
	if w404 := doRequest(t, s, "GET", "/cgi-bin/nonexistent", nil); w404.Code != http.StatusNotFound {
		t.Errorf("missing script = %d, want 404", w404.Code)
	}
}

// Without a protecting guard the vulnerable phf script leaks the fake
// password file — the baseline the paper's integration fixes.
func TestUnprotectedPhfLeaks(t *testing.T) {
	s := testServer(t, nil)
	w := doRequest(t, s, "GET", "/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "root:x:0:0") {
		t.Errorf("phf exploit = %d %q (substrate should be vulnerable without guards)", w.Code, w.Body.String())
	}
}

func TestGuardOrderingFirstDecides(t *testing.T) {
	forbid := GuardFunc(func(*RequestRec) Verdict { return Verdict{Status: Forbidden("g1")} })
	allow := GuardFunc(func(*RequestRec) Verdict { return Verdict{Status: OK("g2")} })
	s := testServer(t, func(c *Config) { c.Guards = []Guard{forbid, allow} })
	if w := doRequest(t, s, "GET", "/index.html", nil); w.Code != http.StatusForbidden {
		t.Errorf("code = %d, want 403 (first guard wins)", w.Code)
	}
}

func TestGuardDeclinedFallsThrough(t *testing.T) {
	decline := GuardFunc(func(*RequestRec) Verdict { return Verdict{Status: Declined("no opinion")} })
	s := testServer(t, func(c *Config) { c.Guards = []Guard{decline} })
	if w := doRequest(t, s, "GET", "/index.html", nil); w.Code != http.StatusOK {
		t.Errorf("code = %d, want 200 (default allow)", w.Code)
	}
}

func TestGuardAuthRequired(t *testing.T) {
	guard := GuardFunc(func(rec *RequestRec) Verdict {
		if rec.User == "" {
			return Verdict{Status: AuthRequired(`Basic realm="lockdown"`, "auth needed")}
		}
		return Verdict{Status: OK("authenticated")}
	})
	s := testServer(t, func(c *Config) { c.Guards = []Guard{guard} })

	w := doRequest(t, s, "GET", "/index.html", nil)
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("anonymous = %d, want 401", w.Code)
	}
	if got := w.Header().Get("WWW-Authenticate"); !strings.Contains(got, "lockdown") {
		t.Errorf("WWW-Authenticate = %q", got)
	}
	// Valid credentials satisfy the guard.
	w2 := doRequest(t, s, "GET", "/index.html", basicHeader("alice", "wonderland"))
	if w2.Code != http.StatusOK {
		t.Errorf("authenticated = %d, want 200", w2.Code)
	}
	// Wrong password stays anonymous.
	w3 := doRequest(t, s, "GET", "/index.html", basicHeader("alice", "queen"))
	if w3.Code != http.StatusUnauthorized {
		t.Errorf("bad password = %d, want 401", w3.Code)
	}
}

func TestGuardRedirect(t *testing.T) {
	guard := GuardFunc(func(*RequestRec) Verdict {
		return Verdict{Status: Moved("http://replica.example.org/index.html", "load balancing")}
	})
	s := testServer(t, func(c *Config) { c.Guards = []Guard{guard} })
	w := doRequest(t, s, "GET", "/index.html", nil)
	if w.Code != http.StatusFound {
		t.Fatalf("code = %d, want 302", w.Code)
	}
	if got := w.Header().Get("Location"); got != "http://replica.example.org/index.html" {
		t.Errorf("Location = %q", got)
	}
}

func TestFirewallBlocksBeforeGuards(t *testing.T) {
	blocks := netblock.NewSet()
	blocks.Block("10.0.0.1", 0)
	guardRan := false
	spy := GuardFunc(func(*RequestRec) Verdict {
		guardRan = true
		return Verdict{Status: OK("")}
	})
	s := testServer(t, func(c *Config) {
		c.Blocks = blocks
		c.Guards = []Guard{spy}
	})
	w := doRequest(t, s, "GET", "/index.html", nil)
	if w.Code != http.StatusForbidden {
		t.Errorf("blocked client = %d, want 403", w.Code)
	}
	if guardRan {
		t.Error("guards must not run for firewalled clients")
	}
}

func TestMidConditionAbortsRunawayScript(t *testing.T) {
	guard := GuardFunc(func(rec *RequestRec) Verdict {
		return Verdict{
			Status: OK("granted with quota"),
			Monitor: func(s execctl.Snapshot) bool {
				return s.CPUMillis <= 100
			},
		}
	})
	s := testServer(t, func(c *Config) { c.Guards = []Guard{guard} })
	w := doRequest(t, s, "GET", "/cgi-bin/spin", nil)
	if w.Code != http.StatusInternalServerError {
		t.Errorf("runaway script = %d, want 500 (aborted)", w.Code)
	}
	if !strings.Contains(w.Body.String(), "aborted") {
		t.Errorf("body = %q", w.Body.String())
	}
}

func TestMidConditionAllowsBoundedScript(t *testing.T) {
	guard := GuardFunc(func(*RequestRec) Verdict {
		return Verdict{
			Status:  OK(""),
			Monitor: func(s execctl.Snapshot) bool { return s.CPUMillis <= 1000 },
		}
	})
	s := testServer(t, func(c *Config) { c.Guards = []Guard{guard} })
	w := doRequest(t, s, "GET", "/cgi-bin/search?q=ok", nil)
	if w.Code != http.StatusOK {
		t.Errorf("bounded script = %d, want 200", w.Code)
	}
}

// discardResponse is a reusable response sink.
type discardResponse struct {
	header http.Header
	code   int
}

func (w *discardResponse) Header() http.Header         { return w.header }
func (w *discardResponse) WriteHeader(code int)        { w.code = code }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

func TestPostHookSeesOperationStatus(t *testing.T) {
	var statuses []bool
	guard := GuardFunc(func(*RequestRec) Verdict {
		return Verdict{
			Status: OK(""),
			Post:   func(ok bool) { statuses = append(statuses, ok) },
		}
	})
	s := testServer(t, func(c *Config) { c.Guards = []Guard{guard} })
	doRequest(t, s, "GET", "/index.html", nil)   // success
	doRequest(t, s, "GET", "/missing.html", nil) // 404: operation failed
	if len(statuses) != 2 || statuses[0] != true || statuses[1] != false {
		t.Errorf("post statuses = %v, want [true false]", statuses)
	}
}

func TestAccessLogCLF(t *testing.T) {
	var log strings.Builder
	s := testServer(t, func(c *Config) {
		c.AccessLog = &log
		c.Clock = func() time.Time { return time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC) }
	})
	doRequest(t, s, "GET", "/index.html", basicHeader("alice", "wonderland"))
	line := strings.TrimSpace(log.String())
	if !strings.HasPrefix(line, "10.0.0.1 - alice [19/May/2003:12:00:00 +0000]") {
		t.Errorf("CLF line = %q", line)
	}
	if !strings.Contains(line, `"GET /index.html" 200`) {
		t.Errorf("CLF line = %q", line)
	}
}

func TestBaselineGuardWithServer(t *testing.T) {
	src := NewMapHtaccessSource()
	if err := src.SetString("docs", "Require valid-user\n"); err != nil {
		t.Fatal(err)
	}
	s := testServer(t, func(c *Config) {
		c.Guards = []Guard{NewBaselineGuard(src, nil)}
	})
	// Unprotected root document.
	if w := doRequest(t, s, "GET", "/index.html", nil); w.Code != http.StatusOK {
		t.Errorf("/index.html = %d, want 200", w.Code)
	}
	// Protected subtree.
	if w := doRequest(t, s, "GET", "/docs/guide.html", nil); w.Code != http.StatusUnauthorized {
		t.Errorf("anonymous /docs = %d, want 401", w.Code)
	}
	if w := doRequest(t, s, "GET", "/docs/guide.html", basicHeader("alice", "wonderland")); w.Code != http.StatusOK {
		t.Errorf("authenticated /docs = %d, want 200", w.Code)
	}
}

func TestRequestRecExtraction(t *testing.T) {
	req := httptest.NewRequest("GET", "/cgi-bin/phf?Qalias=x", strings.NewReader("body12"))
	req.RemoteAddr = "192.0.2.7:999"
	req.Header.Set("X-One", "1")
	rec := NewRequestRec(req, nil, time.Now())
	if rec.ClientIP != "192.0.2.7" {
		t.Errorf("ClientIP = %q", rec.ClientIP)
	}
	if rec.Path != "/cgi-bin/phf" || rec.Query != "Qalias=x" {
		t.Errorf("path/query = %q %q", rec.Path, rec.Query)
	}
	if rec.URI != "GET /cgi-bin/phf?Qalias=x" {
		t.Errorf("URI = %q", rec.URI)
	}
	if rec.InputLength != len("Qalias=x")+6 {
		t.Errorf("InputLength = %d", rec.InputLength)
	}
	if rec.Object() != "/cgi-bin/phf" {
		t.Errorf("Object = %q", rec.Object())
	}
}

func TestRequestRecAuthStates(t *testing.T) {
	auth := NewHtpasswd()
	auth.SetPassword("alice", "pw")
	mk := func(header string) *RequestRec {
		req := httptest.NewRequest("GET", "/", nil)
		if header != "" {
			req.Header.Set("Authorization", header)
		}
		return NewRequestRec(req, auth, time.Now())
	}
	anon := mk("")
	if anon.AuthAttempted || anon.User != "" {
		t.Errorf("anonymous rec = %+v", anon)
	}
	good := mk("Basic " + base64.StdEncoding.EncodeToString([]byte("alice:pw")))
	if good.User != "alice" || good.AuthFailed {
		t.Errorf("valid creds rec = %+v", good)
	}
	bad := mk("Basic " + base64.StdEncoding.EncodeToString([]byte("alice:nope")))
	if bad.User != "" || !bad.AuthFailed || !bad.AuthAttempted {
		t.Errorf("invalid creds rec = %+v", bad)
	}
	malformed := mk("Basic !!!notbase64!!!")
	if !malformed.AuthAttempted || !malformed.AuthFailed {
		t.Errorf("malformed creds rec = %+v", malformed)
	}
}

func TestScriptRegistryNames(t *testing.T) {
	r := NewDemoRegistry()
	names := r.Names()
	want := []string{"bigout", "phf", "search", "spin", "test-cgi"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestStatusKindStrings(t *testing.T) {
	for k, want := range map[StatusKind]string{
		StatusOK: "HTTP_OK", StatusDeclined: "HTTP_DECLINED",
		StatusForbidden: "HTTP_FORBIDDEN", StatusAuthRequired: "HTTP_AUTHREQUIRED",
		StatusMoved: "HTTP_MOVED",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if StatusKind(42).String() != "StatusKind(42)" {
		t.Error("unknown kind String mismatch")
	}
}

// TestDemoScriptsOutputs pins the demo scripts' observable behaviour.
func TestDemoScriptsOutputs(t *testing.T) {
	s := testServer(t, nil)
	// phf without the exploit query: benign output.
	w := doRequest(t, s, "GET", "/cgi-bin/phf?Qalias=nobody", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "no entries matched") {
		t.Errorf("phf benign = %d %q", w.Code, w.Body.String())
	}
	// test-cgi echoes the query string.
	w = doRequest(t, s, "GET", "/cgi-bin/test-cgi?probe", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "QUERY_STRING = probe") {
		t.Errorf("test-cgi = %d %q", w.Code, w.Body.String())
	}
	// bigout writes a full MiB when unconstrained.
	w = doRequest(t, s, "GET", "/cgi-bin/bigout", nil)
	if w.Code != http.StatusOK || w.Body.Len() != 1<<20 {
		t.Errorf("bigout = %d, %d bytes; want 200, 1 MiB", w.Code, w.Body.Len())
	}
}

func TestAuthRequiredDefaultChallenge(t *testing.T) {
	st := AuthRequired("", "why")
	if !strings.Contains(st.Challenge, "restricted") {
		t.Errorf("default challenge = %q", st.Challenge)
	}
}

// TestMounts: a mounted object is served by its handler, by its exact
// object, only after the firewall and the guards, which see its
// Mount; Post and the log line see the status the handler answered,
// and a document outside the mounts is served as before.
func TestMounts(t *testing.T) {
	var log strings.Builder
	var posts, mounted []bool
	blocks := netblock.NewSet()
	blocks.Block("10.0.0.66", 0)
	answer := func(code int, body string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
			w.Write([]byte(body))
		})
	}
	guard := GuardFunc(func(rec *RequestRec) Verdict {
		mounted = append(mounted, rec.Mount != nil)
		if rec.ClientIP == "10.0.0.9" {
			return Verdict{Status: Forbidden("")}
		}
		return Verdict{Status: OK(""), Post: func(ok bool) { posts = append(posts, ok) }}
	})
	s := testServer(t, func(c *Config) {
		c.Guards, c.Blocks, c.AccessLog = []Guard{guard}, blocks, &log
		c.Mounts = map[string]http.Handler{
			"/adm/status":     answer(http.StatusOK, "up"),
			"/adm/fail":       answer(http.StatusServiceUnavailable, "down"),
			"/dbg/index.html": answer(http.StatusOK, "tree"),
		}
	})
	for _, tc := range []struct {
		from, target string
		code         int
		body         string
	}{
		{"10.0.0.1", "/adm/status", 200, "up"},
		{"10.0.0.1", "/adm//status", 200, "up"}, // the object, not the spelling
		{"10.0.0.1", "/adm/fail", 503, "down"},
		{"10.0.0.1", "/dbg/", 200, "tree"},           // the directory's object
		{"10.0.0.1", "/dbg/a/b", 404, "not found\n"}, // one object, not a subtree
		{"10.0.0.1", "/adm/other", 404, "not found\n"},
		{"10.0.0.1", "/index.html", 200, "<html>welcome</html>"},
		{"10.0.0.9", "/adm/status", 403, "Permission Denied\n"},
		{"10.0.0.66", "/adm/status", 403, "address blocked\n"},
	} {
		req := httptest.NewRequest("GET", tc.target, nil)
		req.RemoteAddr = tc.from + ":34567"
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != tc.code || w.Body.String() != tc.body {
			t.Errorf("GET %s from %s = %d %q, want %d %q", tc.target, tc.from, w.Code, w.Body, tc.code, tc.body)
		}
	}
	if want := []bool{true, true, false, true, false, false, true}; !slices.Equal(posts, want) {
		t.Errorf("post statuses = %v, want %v", posts, want)
	}
	if want := []bool{true, true, true, true, false, false, false, true}; !slices.Equal(mounted, want) {
		t.Errorf("guard saw a Mount = %v, want %v", mounted, want)
	}
	if !strings.Contains(log.String(), `"GET /adm/fail" 503 4`) {
		t.Errorf("access log lacks the mounted handler's status and size:\n%s", log.String())
	}
}
