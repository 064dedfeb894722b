package gaahttp

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/audit"
	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids"
)

// failingSource errors on every operation.
type failingSource struct{ err error }

func (f failingSource) Policies(string) ([]*eacl.EACL, error) { return nil, f.err }
func (f failingSource) Revision(string) (string, error)       { return "", f.err }

// TestGuardFailsClosedOnPolicyError: a policy-retrieval failure must
// not grant access.
func TestGuardFailsClosedOnPolicyError(t *testing.T) {
	g := New(Config{
		API:    gaa.New(),
		System: []gaa.PolicySource{failingSource{errors.New("disk on fire")}},
	})
	rec := httpd.NewRequestRec(httptest.NewRequest("GET", "/x", nil), nil, time.Now())
	v := g.Check(rec)
	if v.Status.Kind != httpd.StatusForbidden {
		t.Errorf("verdict = %v, want Forbidden (fail closed)", v.Status.Kind)
	}
}

// TestGuardAuditsDecisions: the Audit logger receives one record per
// authorization.
func TestGuardAuditsDecisions(t *testing.T) {
	ring := audit.NewRing(8)
	src := gaa.NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	g := New(Config{
		API:   gaa.New(),
		Local: []gaa.PolicySource{src},
		Audit: ring,
	})
	req := httptest.NewRequest("GET", "/doc.html", nil)
	req.RemoteAddr = "10.0.0.3:1"
	g.Check(httpd.NewRequestRec(req, nil, time.Now()))
	recs := ring.Records()
	if len(recs) != 1 {
		t.Fatalf("audit records = %d, want 1", len(recs))
	}
	if recs[0].Kind != "gaa_check_authorization" || recs[0].Decision != "yes" || recs[0].Object != "/doc.html" {
		t.Errorf("record = %+v", recs[0])
	}
}

// TestIllFormedReportPublished: control characters in the request line
// produce an ill_formed_request report even when the request is
// ultimately granted.
func TestIllFormedReportPublished(t *testing.T) {
	st, err := NewStack(StackConfig{
		LocalPolicies: map[string]string{"*": "pos_access_right apache *"},
		DocRoot:       map[string]string{"/x": "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reports := collectReports(st.Bus)

	rec := &httpd.RequestRec{
		Time: time.Now(), Method: "GET", Path: "/x",
		URI: "GET /\x01x", ClientIP: "10.0.0.1", HeaderCount: 1,
	}
	st.Guard.Check(rec)
	found := false
	for _, r := range *reports {
		if r.Kind == ids.IllFormedRequest {
			found = true
		}
	}
	if !found {
		t.Error("no ill_formed_request report")
	}
}

// TestUnusualBehaviorReport: a trained client deviating wildly gets an
// unusual_behavior report on a GRANTED request. NewStack builds no
// detector, so the guard is given one (Config.Anomaly).
func TestUnusualBehaviorReport(t *testing.T) {
	g, det, bus := anomalyGuard(t)
	// Train well past MinTraining on a constant profile.
	for i := 0; i < 30; i++ {
		det.Train("10.7.7.7", "/index.html", 0)
	}
	reports := collectReports(bus)

	req := httptest.NewRequest("GET", "/odd.html?q="+strings.Repeat("z", 400), nil)
	req.RemoteAddr = "10.7.7.7:1"
	if v := g.Check(httpd.NewRequestRec(req, nil, time.Now())); v.Status.Kind != httpd.StatusOK {
		t.Fatalf("granted request = %+v", v.Status)
	}
	found := false
	for _, r := range *reports {
		if r.Kind == ids.UnusualBehavior {
			found = true
		}
	}
	if !found {
		t.Error("no unusual_behavior report for a wildly deviating request")
	}
}

// anomalyGuard is a guard that grants everything, publishes to its bus
// and trains its anomaly detector on each grant.
func anomalyGuard(t *testing.T) (*Guard, *ids.Detector, *ids.Bus) {
	src := gaa.NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	det, bus := ids.NewDetector(ids.DefaultAnomalyConfig()), ids.NewBus()
	return New(Config{API: gaa.New(), Local: []gaa.PolicySource{src}, Bus: bus, Anomaly: det}), det, bus
}

// TestStackCloseFlushesAsyncNotifier: Close drains queued messages.
func TestStackCloseFlushesAsyncNotifier(t *testing.T) {
	st, err := NewStack(StackConfig{
		LocalPolicies: map[string]string{"*": `
neg_access_right apache *
rr_cond_notify local on:failure/sysadmin/info:x
`},
		AsyncNotify:   true,
		NotifyLatency: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httpd.NewRequestRec(httptest.NewRequest("GET", "/x", nil), nil, time.Now())
	st.Guard.Check(rec)
	st.Close() // must flush the queue
	if st.Mailbox.Count() != 1 {
		t.Errorf("messages after Close = %d, want 1 (flushed)", st.Mailbox.Count())
	}
	st.Close() // idempotent... Close on a closed stack must not panic
}

// TestGuardAuthorizationErrorFailsClosed covers the CheckAuthorization
// error path (nil policy is impossible through GetObjectPolicyInfo, so
// drive it directly).
func TestGuardAuthorizationErrorFailsClosed(t *testing.T) {
	api := gaa.New()
	if _, err := api.CheckAuthorization(context.Background(), nil, gaa.NewRequest("apache", "GET /")); err == nil {
		t.Fatal("expected error")
	}
}
