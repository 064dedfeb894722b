package gaahttp

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gaaapi/internal/gaa"
)

const (
	allowAll = "pos_access_right apache *"
	denyAll  = "neg_access_right apache *"
	// badRegex parses as an EACL but cannot behave as written; the
	// analyzer flags it at severity error (E001), which must reject a
	// reload.
	badRegex = "neg_access_right apache *\npre_cond_regex gnu re:[unclosed"
)

func reloadStack(t *testing.T) *Stack {
	t.Helper()
	st, err := NewStack(StackConfig{
		LocalPolicies: map[string]string{"*": allowAll},
		DocRoot:       map[string]string{"/index.html": "<html>ok</html>"},
		PolicyCache:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func reloadGet(st *Stack, path string) int {
	rec := httptest.NewRecorder()
	st.Server.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code
}

func TestReloadAppliesAndInvalidatesCache(t *testing.T) {
	st := reloadStack(t)
	if code := reloadGet(st, "/index.html"); code != http.StatusOK {
		t.Fatalf("pre-reload GET = %d, want 200", code)
	}
	// Warm the policy cache with the grant.
	reloadGet(st, "/index.html")

	res := st.ReloadPolicies("", map[string]string{"*": denyAll})
	if !res.OK {
		t.Fatalf("reload rejected: %+v", res)
	}
	if res.Generation != 2 {
		t.Fatalf("generation = %d, want 2", res.Generation)
	}
	if !res.Probation {
		t.Fatal("applied reload did not arm the health probe")
	}
	// The cached grant must not survive the swap.
	if code := reloadGet(st, "/index.html"); code != http.StatusForbidden {
		t.Fatalf("post-reload GET = %d, want 403 (stale cache?)", code)
	}
	stats := st.Reloader.Stats()
	if stats.Applied != 1 || stats.Rejected != 0 || stats.Generation != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestRejectedReloadKeepsServingOldPolicy: a candidate carrying an
// error-severity finding, a value-level one or an unsatisfiable entry,
// is refused, and the old policy keeps serving.
func TestRejectedReloadKeepsServingOldPolicy(t *testing.T) {
	for _, tt := range []struct{ code, policy string }{
		{"E001", badRegex},
		{"E013", "pos_access_right apache *\npre_cond_location local 10.0.0.0/8\npre_cond_location local 192.168.0.0/16"},
	} {
		t.Run(tt.code, func(t *testing.T) {
			st := reloadStack(t)
			if code := reloadGet(st, "/index.html"); code != http.StatusOK {
				t.Fatalf("pre-reload GET = %d, want 200", code)
			}

			res := st.ReloadPolicies("", map[string]string{"*": tt.policy})
			if res.OK {
				t.Fatal("analyzer-rejected policy applied")
			}
			if res.Err == "" || len(res.Diagnostics) == 0 {
				t.Fatalf("rejection carries no diagnostics: %+v", res)
			}
			found := false
			for _, d := range res.Diagnostics {
				if strings.Contains(d, tt.code) {
					found = true
				}
			}
			if !found {
				t.Fatalf("diagnostics lack the rejecting rule: %v", res.Diagnostics)
			}
			if res.Generation != 1 {
				t.Fatalf("generation = %d after rejection, want 1 (unswapped)", res.Generation)
			}
			// The old policy must keep serving.
			if code := reloadGet(st, "/index.html"); code != http.StatusOK {
				t.Fatalf("GET after rejected reload = %d, want 200", code)
			}
			stats := st.Reloader.Stats()
			if stats.Rejected != 1 || stats.Applied != 0 || stats.LastError == "" || len(stats.LastDiagnostics) == 0 {
				t.Fatalf("stats after rejection = %+v", stats)
			}
		})
	}
}

func TestReloadParseErrorRejected(t *testing.T) {
	st := reloadStack(t)
	res := st.ReloadPolicies("", map[string]string{"*": "this is not an eacl"})
	if res.OK || res.Err == "" {
		t.Fatalf("parse garbage accepted: %+v", res)
	}
	if code := reloadGet(st, "/index.html"); code != http.StatusOK {
		t.Fatalf("GET after parse-failed reload = %d, want 200", code)
	}
}

func newTestReloader(t *testing.T) (*Reloader, *gaa.SwappableSource, *gaa.SwappableSource, gaa.PolicySource) {
	t.Helper()
	orig := gaa.NewMemorySource()
	if err := orig.AddPolicy("*", allowAll); err != nil {
		t.Fatal(err)
	}
	system := gaa.NewSwappableSource(gaa.NewMemorySource())
	local := gaa.NewSwappableSource(orig)
	r := NewReloader(ReloadConfig{
		System: system,
		Local:  local,
	})
	return r, system, local, orig
}

func TestHealthProbeAutoRollback(t *testing.T) {
	r, _, local, orig := newTestReloader(t)
	res := r.ReloadWith(func() (*PolicyBundle, error) {
		return BundleFromStrings("", map[string]string{"*": denyAll})
	})
	if !res.OK || !res.Probation {
		t.Fatalf("reload = %+v", res)
	}
	if local.Current() == orig {
		t.Fatal("swap did not replace the local source")
	}

	// Every post-swap request degrades: the probe must revert the swap.
	for i := 0; i < probeWindow; i++ {
		r.Observe(true)
	}
	if local.Current() != orig {
		t.Fatal("degraded probe window did not roll the policy back")
	}
	stats := r.Stats()
	if stats.AutoRollbacks != 1 {
		t.Fatalf("AutoRollbacks = %d, want 1", stats.AutoRollbacks)
	}
	if !strings.Contains(stats.LastError, "rolled back") {
		t.Fatalf("LastError = %q, want rollback explanation", stats.LastError)
	}
	if stats.Probation {
		t.Fatal("probation still armed after rollback")
	}
}

func TestHealthProbeHealthySwapSticks(t *testing.T) {
	r, _, local, orig := newTestReloader(t)
	res := r.ReloadWith(func() (*PolicyBundle, error) {
		return BundleFromStrings("", map[string]string{"*": denyAll})
	})
	if !res.OK {
		t.Fatalf("reload = %+v", res)
	}
	swapped := local.Current()
	for i := 0; i < 2*probeWindow; i++ {
		r.Observe(false)
	}
	if local.Current() != swapped || local.Current() == orig {
		t.Fatal("healthy probe window reverted the swap")
	}
	stats := r.Stats()
	if stats.AutoRollbacks != 0 || stats.Probation {
		t.Fatalf("stats = %+v, want no rollback, probation closed", stats)
	}
}

func TestHealthProbeRespectsDegradedBaseline(t *testing.T) {
	// A workload that was already degraded before the swap must not
	// condemn the new policy: rate must exceed baseline + margin.
	r, _, local, orig := newTestReloader(t)
	for i := 0; i < healthWindow; i++ {
		r.health.Observe(true) // baseline: 100% degraded
	}
	res := r.ReloadWith(func() (*PolicyBundle, error) {
		return BundleFromStrings("", map[string]string{"*": denyAll})
	})
	if !res.OK {
		t.Fatalf("reload = %+v", res)
	}
	for i := 0; i < probeWindow; i++ {
		r.Observe(true)
	}
	if local.Current() == orig {
		t.Fatal("probe rolled back despite identical pre-swap baseline")
	}
	if got := r.Stats().AutoRollbacks; got != 0 {
		t.Fatalf("AutoRollbacks = %d, want 0", got)
	}
}

func TestHealthWindow(t *testing.T) {
	h := newHealth()
	if rate, n := h.Rate(); rate != 0 || n != 0 {
		t.Fatalf("empty window = %v/%d", rate, n)
	}
	h.Observe(true)
	h.Observe(false)
	if rate, n := h.Rate(); rate != 0.5 || n != 2 {
		t.Fatalf("rate = %v/%d, want 0.5/2", rate, n)
	}
	// Overwrite the full ring: the bad observation must age out.
	for i := 0; i < healthWindow; i++ {
		h.Observe(false)
	}
	if rate, n := h.Rate(); rate != 0 || n != healthWindow {
		t.Fatalf("rate = %v/%d after aging, want 0/%d", rate, n, healthWindow)
	}
}

func TestReloadWithNoLoader(t *testing.T) {
	r, _, _, _ := newTestReloader(t)
	if res := r.Reload(); res.OK || res.Err == "" {
		t.Fatalf("Reload without loader = %+v", res)
	}
}
