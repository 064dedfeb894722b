package gaahttp

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// reloadFiles is reloadStack as gaa-httpd serves it from files: a root
// .eacl over a document tree (LocalPolicyDir), reloaded from disk. edit
// rewrites the root .eacl and checks that the running policy still
// answers: an edit is served only once a reload has proved it.
func reloadFiles(t *testing.T) (st *Stack, edit func(policy string)) {
	t.Helper()
	site := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(site, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("index.html", "<html>ok</html>")
	write(".eacl", allowAll)
	st, err := NewStack(StackConfig{LocalPolicyDir: site, DocRootDir: site, PolicyCache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st, func(policy string) {
		t.Helper()
		before := reloadGet(st, "/index.html")
		write(".eacl", policy)
		if code := reloadGet(st, "/index.html"); code != before {
			t.Fatalf("GET after an edit, before a reload = %d, want %d: the edit is served unproved", code, before)
		}
	}
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
			t.Run("memory", func(t *testing.T) {
				st := reloadStack(t)
				rejectedReload(t, st, tt.code, func() ReloadResult {
					return st.ReloadPolicies("", map[string]string{"*": tt.policy})
				})
			})
			// The edit also denies all ahead of the flaw: served, it
			// would answer 403.
			t.Run("files", func(t *testing.T) {
				st, edit := reloadFiles(t)
				rejectedReload(t, st, tt.code, func() ReloadResult {
					edit(denyAll + "\n" + tt.policy)
					return st.Reloader.Reload()
				})
			})
		})
	}
}

// rejectedReload runs a reload that analysis must refuse for rule on a
// stack serving 200 for /index.html, and checks that the refused policy
// is never served.
func rejectedReload(t *testing.T, st *Stack, rule string, reload func() ReloadResult) {
	t.Helper()
	if code := reloadGet(st, "/index.html"); code != http.StatusOK {
		t.Fatalf("pre-reload GET = %d, want 200", code)
	}
	res := reload()
	if res.OK {
		t.Fatal("analyzer-rejected policy applied")
	}
	if res.Err == "" || len(res.Diagnostics) == 0 {
		t.Fatalf("rejection carries no diagnostics: %+v", res)
	}
	found := false
	for _, d := range res.Diagnostics {
		if strings.Contains(d, rule) {
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
	for range 3 {
		if code := reloadGet(st, "/index.html"); code != http.StatusOK {
			t.Fatalf("GET after rejected reload = %d, want 200", code)
		}
	}
	stats := st.Reloader.Stats()
	if stats.Rejected != 1 || stats.Applied != 0 || stats.LastError == "" || len(stats.LastDiagnostics) == 0 {
		t.Fatalf("stats after rejection = %+v", stats)
	}
}

// TestFileReloadUnderLoad: requests in flight across each swap of a
// file-backed tree answer from the old tree or the new one, and the
// first request after Reload returns answers from the new one.
func TestFileReloadUnderLoad(t *testing.T) {
	st, edit := reloadFiles(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code := reloadGet(st, "/index.html"); code != http.StatusOK && code != http.StatusForbidden {
					t.Errorf("GET during reloads = %d", code)
					return
				}
			}
		}()
	}
	for i := range 8 {
		policy, want := denyAll, http.StatusForbidden
		if i%2 == 1 {
			policy, want = allowAll, http.StatusOK
		}
		edit(policy)
		if res := st.Reloader.Reload(); !res.OK {
			t.Fatalf("reload %d = %+v", i, res)
		}
		if code := reloadGet(st, "/index.html"); code != want {
			t.Fatalf("GET after reload %d = %d, want %d", i, code, want)
		}
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

	// From files: the accepted edit is served, and the rollback
	// restores the previous tree's answers, not the files on disk.
	t.Run("files", func(t *testing.T) {
		st, edit := reloadFiles(t)
		edit(denyAll)
		if res := st.Reloader.Reload(); !res.OK {
			t.Fatalf("reload = %+v", res)
		}
		if code := reloadGet(st, "/index.html"); code != http.StatusForbidden {
			t.Fatalf("GET after an accepted reload = %d, want 403", code)
		}
		for i := 0; i < probeWindow; i++ {
			st.Reloader.Observe(true)
		}
		if got := st.Reloader.Stats().AutoRollbacks; got != 1 {
			t.Fatalf("AutoRollbacks = %d, want 1", got)
		}
		if code := reloadGet(st, "/index.html"); code != http.StatusOK {
			t.Fatalf("GET after the rollback = %d, want 200 from the previous tree", code)
		}
	})
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
