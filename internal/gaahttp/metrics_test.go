package gaahttp

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gaaapi/internal/gaa"
	"gaaapi/internal/ids"
	"gaaapi/internal/metrics"
)

// metricsStack wires a full deployment with the observability layer on:
// policy cache, reliable notifier, crash-safe state store.
func metricsStack(t *testing.T) *Stack {
	t.Helper()
	st, err := NewStack(StackConfig{
		SystemPolicy:  policy72System,
		LocalPolicies: map[string]string{"*": policy72Local},
		DocRoot: map[string]string{
			"/index.html": "home",
		},
		Metrics:        true,
		PolicyCache:    true,
		ReliableNotify: true,
		StateDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	return st
}

// TestStackExposition drives traffic through the instrumented stack and
// checks that /gaa/metrics-style exposition is valid Prometheus text
// covering every subsystem the issue names: decisions, phase latency,
// cache, supervision, state store, threat level.
func TestStackExposition(t *testing.T) {
	st := metricsStack(t)
	defer st.Close()

	handler := InstrumentHandler(st.Metrics, st.Server)
	serve := func(target, ip string) int {
		req := httptest.NewRequest("GET", target, nil)
		req.RemoteAddr = ip + ":40000"
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		return w.Code
	}
	serve("/index.html", "10.9.8.7")      // grant
	serve("/cgi-bin/phf?q=x", "10.9.8.7") // signature denial -> notify, blacklist
	// Fresh IP: the probe above blacklisted 10.9.8.7, so reuse would be
	// denied. This grant also exercises the policy-cache hit path.
	serve("/index.html", "10.9.8.8")
	st.Threat.Set(ids.Medium) // threat transition
	st.Blocks.Block("203.0.113.9", 0)

	rec := httptest.NewRecorder()
	MetricsHandler(st.Metrics).ServeHTTP(rec, httptest.NewRequest("GET", "/gaa/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body := rec.Body.String()
	fams, err := metrics.Parse(strings.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	for _, name := range []string{
		gaa.MetricPhaseLatency, gaa.MetricDecisions, gaa.MetricEvaluatorFaults,
		gaa.MetricCacheHits, gaa.MetricCacheMisses, gaa.MetricCacheEvictions,
		MetricThreatLevel, MetricThreatTransitions, MetricIDSReports,
		MetricActiveBlocks,
		MetricNotifyDelivered, MetricNotifyBreakerState,
		MetricStateAppends, MetricStateLastSeq,
		MetricReloadAttempts, MetricReloadGeneration,
		MetricHTTPRequests, MetricHTTPDuration,
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing from exposition", name)
		}
	}
	for _, name := range []string{gaa.MetricPhaseLatency, MetricHTTPDuration} {
		if err := metrics.CheckHistogramInvariants(fams[name]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	vals := st.Metrics.Values()
	if got := vals[`gaa_decisions_total{decision="yes",phase="check"}`]; got < 2 {
		t.Errorf("yes decisions = %v, want >= 2", got)
	}
	if got := vals[`gaa_decisions_total{decision="no",phase="check"}`]; got < 1 {
		t.Errorf("no decisions = %v, want >= 1", got)
	}
	if got := vals["gaa_threat_level"]; got != float64(ids.Medium) {
		t.Errorf("threat level gauge = %v, want %v", got, float64(ids.Medium))
	}
	if got := vals["gaa_threat_transitions_total"]; got < 1 {
		t.Errorf("threat transitions = %v, want >= 1", got)
	}
	if got := vals["gaa_netblock_active_blocks"]; got != 1 {
		t.Errorf("active blocks gauge = %v, want 1", got)
	}
	if got := vals["gaa_policy_cache_hits_total"]; got < 1 {
		t.Errorf("cache hits = %v, want >= 1", got)
	}
	if got := vals["gaa_state_appends_total"]; got < 1 {
		t.Errorf("state appends = %v, want >= 1 (blacklist + block journaled)", got)
	}
	if got := vals["gaa_notify_delivered_total"]; got < 1 {
		t.Errorf("notifications delivered = %v, want >= 1", got)
	}
	if got := vals["gaa_ids_reports_total"]; got < 1 {
		t.Errorf("ids reports = %v, want >= 1", got)
	}
}

// TestInstrumentHandlerCodeClasses checks the status-class counters and
// duration histogram of the HTTP middleware.
func TestInstrumentHandlerCodeClasses(t *testing.T) {
	reg := metrics.NewRegistry()
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/missing":
			w.WriteHeader(http.StatusNotFound)
		case "/boom":
			w.WriteHeader(http.StatusInternalServerError)
		default:
			w.Write([]byte("ok")) // implicit 200
		}
	})
	h := InstrumentHandler(reg, inner)
	for _, path := range []string{"/", "/", "/missing", "/boom"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	}
	vals := reg.Values()
	if got := vals[`gaa_http_requests_total{code_class="2xx"}`]; got != 2 {
		t.Errorf("2xx = %v, want 2", got)
	}
	if got := vals[`gaa_http_requests_total{code_class="4xx"}`]; got != 1 {
		t.Errorf("4xx = %v, want 1", got)
	}
	if got := vals[`gaa_http_requests_total{code_class="5xx"}`]; got != 1 {
		t.Errorf("5xx = %v, want 1", got)
	}
	if got := vals["gaa_http_request_duration_seconds_count"]; got != 4 {
		t.Errorf("duration count = %v, want 4", got)
	}
}

// TestRegisterComponentMetricsNilTolerant: an empty component set
// registers nothing — there is no process-wide state left to report.
func TestRegisterComponentMetricsNilTolerant(t *testing.T) {
	reg := metrics.NewRegistry()
	RegisterComponentMetrics(reg, Components{})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 0 {
		t.Errorf("empty component set registered %d families", len(fams))
	}
	for _, absent := range []string{MetricThreatLevel, MetricNotifyDelivered, MetricStateAppends, MetricReloadAttempts} {
		if fams[absent] != nil {
			t.Errorf("family %s registered for a nil component", absent)
		}
	}
}

// hijackRecorder fakes a hijackable ResponseWriter so the test does not
// need a live TCP server.
type hijackRecorder struct {
	*httptest.ResponseRecorder
	hijacked bool
}

func (h *hijackRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	h.hijacked = true
	return nil, nil, nil
}

// TestStatusWriterForwardsOptionalInterfaces: the instrumentation
// wrapper must not hide Hijacker (connection upgrades) or io.ReaderFrom
// (sendfile) from wrapped handlers.
func TestStatusWriterForwardsOptionalInterfaces(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := &hijackRecorder{ResponseRecorder: httptest.NewRecorder()}
	h := InstrumentHandler(reg, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(io.ReaderFrom); !ok {
			t.Error("wrapped writer lost io.ReaderFrom")
		}
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Fatal("wrapped writer is not an http.Hijacker")
		}
		if _, _, err := hj.Hijack(); err != nil {
			t.Errorf("Hijack: %v", err)
		}
	}))
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !rec.hijacked {
		t.Error("Hijack did not reach the underlying ResponseWriter")
	}

	// Against a plain (non-hijackable) writer it must fail cleanly, not
	// panic or pretend to succeed.
	sw := &statusWriter{ResponseWriter: httptest.NewRecorder(), code: http.StatusOK}
	if _, _, err := sw.Hijack(); err == nil {
		t.Error("Hijack on a non-hijackable writer: want error, got nil")
	}
	if n, err := sw.ReadFrom(strings.NewReader("body")); n != 4 || err != nil {
		t.Errorf("ReadFrom = (%d, %v), want (4, nil)", n, err)
	}
}
