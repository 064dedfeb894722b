package gaahttp

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/costpin"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/policies/paper"
)

// TestCost is the package's cost ledger (internal/costpin): what each
// request kind of the benchmark's streams allocates through the whole
// deployment, and what the section 7.2 response path keeps per attack,
// each count in testdata/cost.golden. Only what outlives a request
// allocates: the guard's pooled check state, recycled by Verdict.Post,
// rides with a hooked CGI request across phases, and a journaled block
// or membership renders into the store's frame buffer. The tests after
// it pin parts of it by name.
func TestCost(t *testing.T) {
	var rows []costpin.Row
	for _, c := range guardConfigs {
		rows = append(rows, cachedGrantRows(t, c)...)
	}
	costpin.Check(t, slices.Concat(rows,
		coldGrantRows(t),
		browseRows(t),
		denyRows(t),
		firstContactRows(t),
		fileBackedRows(t),
		retentionRows(t),
		grantRetentionRows(t),
		violatedRows(t),
	))
}

func TestGuardCheckCachedGrantZeroAlloc(t *testing.T) {
	for _, c := range guardConfigs {
		t.Run(c.name, func(t *testing.T) { costpin.CheckRows(t, cachedGrantRows(t, c)) })
	}
}

func TestStackCGIGrantAllocs(t *testing.T) {
	for i, name := range []string{"firewall drop", "document grant", "CGI grant"} {
		t.Run(name, func(t *testing.T) { costpin.CheckRows(t, browseRows(t)[i:i+1]) })
	}
}

func TestGuardCheckColdGrantAllocs(t *testing.T)     { costpin.CheckRows(t, coldGrantRows(t)) }
func TestStackQuotaViolationAllocs(t *testing.T)     { costpin.CheckRows(t, violatedRows(t)) }
func TestGuardCheckDenyAllocs(t *testing.T)          { costpin.CheckRows(t, denyRows(t)) }
func TestStackFirstContactAttackAllocs(t *testing.T) { costpin.CheckRows(t, firstContactRows(t)) }
func TestStackFileBackedGrantAllocs(t *testing.T)    { costpin.CheckRows(t, fileBackedRows(t)) }
func TestResponseRetentionBounded(t *testing.T)      { costpin.CheckRows(t, retentionRows(t)) }
func TestGrantRetentionBounded(t *testing.T)         { costpin.CheckRows(t, grantRetentionRows(t)) }

// costStack is a Stack on cfg, closed when the test ends.
func costStack(t *testing.T, cfg StackConfig) *Stack {
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// serveRun is a GET of target from ip through h that wants code.
func serveRun(t *testing.T, h http.Handler, target, ip string, code int) func() {
	req := httptest.NewRequest("GET", target, nil)
	req.RemoteAddr = ip + ":40000"
	rw := &nullResponse{header: make(http.Header)}
	return func() {
		rw.code = 0
		h.ServeHTTP(rw, req)
		if rw.code != code {
			t.Fatalf("%s from %s answered %d, want %d", target, ip, rw.code, code)
		}
	}
}

// warm runs the row's request once, to check its answer and fill what
// the first request fills, and leaves it uncounted under -race.
func warm(run func(), row costpin.Row) costpin.Row {
	run()
	row.Run, row.NoRace = run, true
	return row
}

// guardConfigs are the guard with the metrics layer and the adaptive
// scorer, which scores the sample inline, and without: they must add
// nothing to a cached grant.
var guardConfigs = func() []guardConfig {
	scorer := adaptive.Defaults()
	return []guardConfig{
		{"plain", false, nil},
		{"metrics", true, nil},
		{"scorer", false, &scorer},
		{"metrics+scorer", true, &scorer},
	}
}()

type guardConfig struct {
	name     string
	metrics  bool
	adaptive *adaptive.Config
}

// cachedGrantRows are a cached GET grant through Guard.Check under c,
// and a HEAD after it.
func cachedGrantRows(t *testing.T, c guardConfig) []costpin.Row {
	st := costStack(t, StackConfig{
		SystemPolicy:  paper.System72,
		LocalPolicies: map[string]string{"*": policy72Local},
		DocRoot:       map[string]string{"/index.html": "home"},
		PolicyCache:   true,
		Metrics:       c.metrics,
		Adaptive:      c.adaptive,
	})
	var rows []costpin.Row
	for _, m := range []struct{ method, what string }{
		{"GET", "nothing: the audit record's right, authority, method and path, is the cached policy's, kept in its rights memo (§5.1) by the check that filled it"},
		{"HEAD", "its own right, kept by the audit ring: a HEAD after the GET that filled the memo"},
	} {
		rec := &httpd.RequestRec{
			Time:     time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC),
			Method:   m.method,
			Path:     "/index.html",
			URI:      m.method + " /index.html",
			ClientIP: "10.0.0.1",
		}
		right := "apache " + m.method + " /index.html"
		check := func() {
			if v := st.Guard.Check(rec); v.Status.Kind != httpd.StatusOK {
				t.Fatalf("%s: Check = %+v, want OK", m.method, v.Status)
			}
		}
		for i := 0; i < 2; i++ { // the first GET fills the memo
			check()
			if recs := st.Audit.Records(); len(recs) == 0 || recs[len(recs)-1].Right != right {
				t.Fatalf("audit records = %+v, want a last one with right %q", recs, right)
			}
		}
		rows = append(rows, warm(check, costpin.Row{Name: "cached grant (Guard.Check), " + c.name + ", " + m.method, What: m.what}))
	}
	return rows
}

// coldGrantRows is a document grant through Guard.Check on an object
// the policy cache has not seen. The cache is full first, so every
// measured check misses and evicts, and its object's composition is
// the one its neighbours share.
func coldGrantRows(t *testing.T) []costpin.Row {
	st := costStack(t, StackConfig{
		SystemPolicy:  paper.System72,
		LocalPolicies: map[string]string{"*": policy72Local},
		PolicyCache:   true,
		Metrics:       true,
	})
	const fill = 3 * 4096 // NewStack's capacity, thrice over
	recs := make([]*httpd.RequestRec, fill+costpin.Runs+2)
	for i := range recs {
		path := fmt.Sprintf("/docs/page%05d.html", i)
		recs[i] = &httpd.RequestRec{
			Time:     time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC),
			Method:   "GET",
			Path:     path,
			URI:      "GET " + path,
			ClientIP: "10.0.0.1",
		}
	}
	next := 0
	check := func() {
		if v := st.Guard.Check(recs[next]); v.Status.Kind != httpd.StatusOK {
			t.Fatalf("%s: Check = %+v, want OK", recs[next].Path, v.Status)
		}
		next++
	}
	for next < fill {
		check()
	}
	hits := st.API.CacheStats().Hits
	t.Cleanup(func() {
		if got := st.API.CacheStats().Hits - hits; got != 0 {
			t.Errorf("%d of the measured checks hit the policy cache; every one should miss", got)
		}
	})
	return []costpin.Row{warm(check, costpin.Row{Name: "cold document grant (Guard.Check)",
		What: "the policy-cache entry, whose rights memo keeps the audit record's right in its own bytes; the composition is shared"})}
}

// browseRows are the browse stream's request kinds through
// Stack.Handler(), with metrics, the policy cache and a discarded access
// log, as gaa-httpd runs it.
func browseRows(t *testing.T) []costpin.Row {
	st := costStack(t, StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		DocRoot:       map[string]string{"/index.html": "home"},
		PolicyCache:   true,
		Metrics:       true,
		AccessLog:     io.Discard,
	})
	h := st.Handler()
	st.Blocks.Block("10.0.0.66", 0)
	return []costpin.Row{
		warm(serveRun(t, h, "/index.html", "10.0.0.66", http.StatusForbidden), costpin.Row{Name: "firewall drop",
			What: "nothing: the source is dropped before the request line is built, and the 403 body is a package-level []byte"}),
		warm(serveRun(t, h, "/index.html", "10.0.0.1", http.StatusOK), costpin.Row{Name: "document grant",
			What: "nothing: the request line and the numeric parameters are written into the record's and the check's pooled buffers and borrowed"}),
		warm(serveRun(t, h, "/cgi-bin/search?q=eacl", "10.0.0.1", http.StatusOK), costpin.Row{Name: "monitored CGI grant",
			What: `the script's formatted output argument, the script's own: the request line and the usage values ("1120") are borrowed from pooled buffers`}),
	}
}

// violatedRows are a CGI grant whose script outruns its quota through
// Stack.Handler(), as browseRows serve it: the final mid check fails,
// the operation is aborted with a 500, and the post block's
// on:failure audit fires.
func violatedRows(t *testing.T) []costpin.Row {
	st := costStack(t, StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": strings.Replace(browseLocal, "cpu_ms<=250", "cpu_ms<1", 1)},
		PolicyCache:   true,
		Metrics:       true,
		AccessLog:     io.Discard,
	})
	return []costpin.Row{warm(serveRun(t, st.Handler(), "/cgi-bin/search?q=eacl", "10.0.0.1", http.StatusInternalServerError),
		costpin.Row{Name: "monitored CGI grant, quota violated",
			What: "the script's formatted output argument, as in the monitored CGI grant: the failed run's audit record costs none of its own"})}
}

// denyRows is the phf probe through Guard.Check, with the local
// policy's notify, blacklist, firewall block and audit responses.
func denyRows(t *testing.T) []costpin.Row {
	st := costStack(t, StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		PolicyCache:   true,
		Metrics:       true,
	})
	phf := httpd.NewRequestRec(newRequest("/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd", "10.9.9.9"), nil, time.Now())
	return []costpin.Row{warm(func() {
		if v := st.Guard.Check(phf); v.Status.Kind != httpd.StatusForbidden {
			t.Fatalf("phf probe: %+v, want forbidden", v.Status)
		}
	}, costpin.Row{Name: "§7.2 deny (Guard.Check)",
		What: "the alert's subject and body, kept by the mailbox; the body is built in the buffer the Body string then is. The audit record's right is the request's label (Request.FirstRight), the guard's own the cached policy's, and the IDS report's signature ids.DB.First's"})}
}

// firstContactRows are a first-contact probe of each of siege's attack
// classes, each from a source the server has not seen, through
// Stack.Server with a state directory: denied, notified, blacklisted,
// blocked and audited, the block and the membership journaled.
func firstContactRows(t *testing.T) []costpin.Row {
	st := firstContactStack(t)
	sources := firstContactSources(4 * (costpin.Runs + 2))
	t.Cleanup(func() {
		if costpin.Race {
			return
		}
		probes := uint64(len(firstContactAttacks) * (costpin.Runs + 2))
		if n := st.Store.Stats().Appends; n < 2*probes {
			t.Errorf("%d probes journaled %d records, want two each", probes, n)
		}
	})
	var rows []costpin.Row
	for _, a := range firstContactAttacks {
		what := "the deny's two; the request line is borrowed, the block and the membership are journaled at no allocation, and the new source's map entries grow amortised"
		switch a.name {
		case "slash flood":
			what += ". The object is sliced out of the path, not copied"
		case "overflow":
			what = "the deny's two, and the abnormal-parameters report's Info; the input length parameter is borrowed like the line"
		}
		rows = append(rows, warm(firstContactProbe(t, st, a.target, &sources), costpin.Row{Name: "first-contact " + a.name + " (Stack.Server, StateDir)", What: what}))
	}
	return rows
}

// fileBackedRows are document grants through the deployment gaa-httpd
// runs from files on the benchmark's site shape: system.eacl, one .eacl
// at the document root and none in docs/ or below, documents read from
// disk. The second is two directories deep, at the same count.
func fileBackedRows(t *testing.T) []costpin.Row {
	dir := t.TempDir()
	site := filepath.Join(dir, "site")
	for name, content := range map[string]string{
		filepath.Join(dir, "system.eacl"):            browseSystem,
		filepath.Join(site, ".eacl"):                 browseLocal,
		filepath.Join(site, "index.html"):            "<html>home</html>",
		filepath.Join(site, "docs/guide.html"):       "<html>guide</html>",
		filepath.Join(site, "docs/manual/page.html"): "<html>page</html>",
	} {
		if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := costStack(t, StackConfig{
		SystemPolicyFile: filepath.Join(dir, "system.eacl"),
		LocalPolicyDir:   site,
		DocRootDir:       site,
		PolicyCache:      true,
		Metrics:          true,
		AccessLog:        io.Discard,
	})
	h := st.Handler()
	return []costpin.Row{warm(serveRun(t, h, "/docs/guide.html", "10.0.0.1", http.StatusOK), costpin.Row{Name: "file-backed document grant",
		What: "the file read's two, the name's NUL-terminated copy and the document's bytes, and no revision stat: the local chain is the tree the load parsed; the request line is borrowed, as in the document grant"}),
		warm(serveRun(t, h, "/docs/manual/page.html", "10.0.0.1", http.StatusOK), costpin.Row{Name: "file-backed document grant, two directories deep",
			What: "the file-backed document grant's two: a directory without a policy file on the path costs nothing"})}
}

// retentionRows are what the response path keeps per attack: the
// attacker's address, not the attack. The mailbox and the audit ring
// keep a 4 KiB prefix of each of their last 1 024, and still count
// every alert.
func retentionRows(t *testing.T) []costpin.Row {
	st := costStack(t, StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		DocRoot:       map[string]string{"/index.html": "home"},
		StateDir:      t.TempDir(),
	})
	h, src := st.Handler(), 0
	attack := func(target string) {
		src++
		serveRun(t, h, target, fmt.Sprintf("11.%d.%d.%d", src>>16, src>>8&0xff, src&0xff), http.StatusForbidden)()
	}
	const attackers, long = 20000, 1100
	t.Cleanup(func() {
		if costpin.Race {
			return
		}
		if n, msgs := st.Mailbox.Count(), len(st.Mailbox.Messages()); n != attackers+long || msgs != 1024 {
			t.Errorf("mailbox Count = %d, len(Messages()) = %d; want %d and 1024: it counts every alert", n, msgs, attackers+long)
		}
	})
	return []costpin.Row{{Name: "20 000 first-contact attacks, one in four a 1.2 KB overflow",
		What: "the source's block, membership and journal state: ≤ 160 B an attack + 2 MiB", MaxBytes: 160*attackers + 2<<20, NoRace: true, Run: func() {
			for i := 0; i < attackers; i++ {
				if i%4 == 3 {
					attack(fmt.Sprintf("/cgi-bin/search?n=%d&q=%s", i, strings.Repeat("A", 1200)))
				} else {
					attack(fmt.Sprintf("/cgi-bin/phf?Qalias=%d", i))
				}
			}
		}}, {Name: "1 100 denials of 16 KiB paths",
		What: "a 4 KiB prefix of each in the mailbox and the audit ring: ≤ 16 MiB", MaxBytes: 16 << 20, NoRace: true, Run: func() {
			for i := 0; i < long; i++ {
				prefix := fmt.Sprintf("/cgi-bin/phf/%05d/", i)
				attack(prefix + strings.Repeat("A", 16<<10-len(prefix)))
			}
		}}}
}

// grantRetentionRows is what a grant keeps of its source: nothing. The
// grant's legitimate-pattern report trains no profile, so a client that
// arrives once from each of many sources grows no table. The audit ring
// is full before the row starts, so its turnover is no growth.
func grantRetentionRows(t *testing.T) []costpin.Row {
	st := costStack(t, StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		DocRoot:       map[string]string{"/index.html": "home"},
		PolicyCache:   true,
		Metrics:       true,
	})
	const sources = 16384
	grant := func(i int) {
		serveRun(t, st.Server, "/index.html", fmt.Sprintf("12.%d.%d.%d", i>>16, i>>8&0xff, i&0xff), http.StatusOK)()
	}
	for i := 0; i < 1024; i++ {
		grant(sources + i)
	}
	return []costpin.Row{{Name: "16 384 grants, each from its own source (Stack.Server)",
		What: "nothing of the source: ≤ 64 KiB", MaxBytes: 64 << 10, NoRace: true, Run: func() {
			for i := 0; i < sources; i++ {
				grant(i)
			}
		}}}
}
