package gaahttp

import (
	"net/http"
	"strings"
	"testing"

	"gaaapi/internal/ids"
	"gaaapi/policies/paper"
)

// TestAdaptiveConstraintLoop drives the paper's full adaptation cycle
// through the stack: the CGI input bound lives in the runtime value
// store (section 2's adaptive constraint specification); an attack
// escalates the threat level (correlator); the level change tightens
// the bound (value tuner, section 3's "values for thresholds ...
// determined by a host-based IDS and communicated to the GAA-API");
// and a request size that was acceptable in peacetime is now denied —
// all without touching the policy text.
func TestAdaptiveConstraintLoop(t *testing.T) {
	const local = `
neg_access_right apache *
pre_cond_regex gnu *phf*
rr_cond_update_log local on:failure/BadGuys/info:IP
neg_access_right apache *
pre_cond_expr local input_length>@max_input
pos_access_right apache *
`
	st, err := NewStack(StackConfig{
		SystemPolicy:  paper.System72,
		LocalPolicies: map[string]string{"*": local},
		DocRoot:       map[string]string{"/index.html": "home"},
		RuntimeValues: map[string]string{"max_input": "1000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The host-IDS side: correlator escalates on attack reports; the
	// tuner tightens the input bound at medium threat.
	correlator := ids.NewCorrelator(st.Threat, ids.CorrelatorConfig{MediumAfter: 1, HighAfter: 10})
	tuner := ids.NewValueTuner(st.Values)
	tuner.SetLevelValues(ids.Medium, map[string]string{"max_input": "300"})

	mediumQuery := "/cgi-bin/search?q=" + strings.Repeat("z", 500)

	// Peacetime: a 500-byte query is within the 1000-byte bound.
	if code := serveTarget(t, st, mediumQuery, "10.0.0.5"); code != http.StatusOK {
		t.Fatalf("peacetime 500-byte query = %d, want 200", code)
	}

	// An attacker probes phf; the report reaches the correlator, the
	// threat level rises, and the tuner reacts (by hand here; in a
	// deployment it is a Manager.OnChange listener).
	st.Bus.OnReport(func(r ids.Report) { correlator.Observe(r) })
	if code := serveTarget(t, st, "/cgi-bin/phf?Qalias=x", "192.0.2.66"); code != http.StatusForbidden {
		t.Fatalf("attack = %d, want 403", code)
	}
	if st.Threat.Level() != ids.Medium {
		t.Fatalf("threat level = %v, want medium", st.Threat.Level())
	}
	tuner.Apply(st.Threat.Level())

	// The same 500-byte query is now over the tightened 300-byte bound.
	if code := serveTarget(t, st, mediumQuery, "10.0.0.5"); code != http.StatusForbidden {
		t.Errorf("wartime 500-byte query = %d, want 403 (tightened bound)", code)
	}
	// Small requests still flow.
	if code := serveTarget(t, st, "/cgi-bin/search?q=ok", "10.0.0.5"); code != http.StatusOK {
		t.Errorf("small query = %d, want 200", code)
	}
}
