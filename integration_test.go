package gaaapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"gaaapi/internal/actions"
	"gaaapi/internal/audit"
	"gaaapi/internal/conditions"
	"gaaapi/internal/gaa"
	"gaaapi/internal/gaahttp"
	"gaaapi/internal/groups"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids"
	"gaaapi/internal/netblock"
	"gaaapi/internal/notify"
	"gaaapi/internal/workload"
	"gaaapi/policies/paper"
)

// Two-signature variants of the paper's section 7.2 local policy
// (policies/paper), shared by the root end-to-end tests with the
// shipped system policy, paper.System72.
const (
	policy72Local = `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
rr_cond_update_log local on:failure/BadGuys/info:IP
neg_access_right apache *
pre_cond_expr local input_length>1000
pos_access_right apache *
`
	policy72LocalNotify = `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:IP
pos_access_right apache *
`
)

// TestEndToEndFileBackedDeployment drives the whole system over real
// TCP with policies stored on disk: the system-wide policy in one
// file, per-directory local policies in .eacl files, credentials in an
// htpasswd file — the paper's deployment shape. It then edits a policy
// file on disk and verifies the change takes effect once the tree is
// loaded again and swapped in, and not before (what gaa-httpd's reload
// does).
func TestEndToEndFileBackedDeployment(t *testing.T) {
	dir := t.TempDir()

	sysPath := filepath.Join(dir, "system.eacl")
	writeFile(t, sysPath, `
eacl_mode narrow
neg_access_right * *
pre_cond_accessid_GROUP local BadGuys
`)
	siteDir := filepath.Join(dir, "site")
	mkdirAll(t, filepath.Join(siteDir, "private"))
	writeFile(t, filepath.Join(siteDir, ".eacl"), `
neg_access_right apache *
pre_cond_regex gnu *phf*
rr_cond_notify local on:failure/sysadmin/info:cgiexploit
rr_cond_update_log local on:failure/BadGuys/info:IP
pos_access_right apache *
`)
	writeFile(t, filepath.Join(siteDir, "private", ".eacl"), `
pos_access_right apache *
pre_cond_accessid_USER apache *
`)

	// Wire the full stack by hand (not the Stack helper) to exercise
	// the file-backed sources.
	threat := ids.NewManager(ids.Low)
	grp := groups.NewStore()
	counters := conditions.NewCounters(nil)
	mailbox := notify.NewMailbox(0)
	ring := audit.NewRing(256)
	blocks := netblock.NewSet()
	sigs := ids.NewDB(ids.DefaultSignatures()...)

	api := gaa.New(gaa.WithPolicyCache(64))
	conditions.Register(api, conditions.Deps{Threat: threat, Groups: grp, Counters: counters, Signatures: sigs})
	actions.Register(api, actions.Deps{Notifier: mailbox, Groups: grp, Audit: ring, Threat: threat, Blocks: blocks, Counters: counters})

	raw, err := os.ReadFile(sysPath)
	if err != nil {
		t.Fatal(err)
	}
	system := gaa.NewMemorySource()
	if err := system.AddPolicy("*", string(raw)); err != nil {
		t.Fatal(err)
	}
	local := gaa.NewSwappableSource(gaa.NewDirSource(siteDir, ".eacl"))
	guard := gaahttp.New(gaahttp.Config{
		API:    api,
		System: []gaa.PolicySource{system},
		Local:  []gaa.PolicySource{local},
		Audit:  ring,
	})

	htauth := httpd.NewHtpasswd()
	htauth.SetPassword("alice", "wonderland")
	server := httpd.NewServer(httpd.Config{
		DocRoot: map[string]string{
			"/index.html":          "home",
			"/private/secret.html": "classified",
		},
		Scripts: httpd.NewDemoRegistry(),
		Guards:  []httpd.Guard{guard},
		Auth:    htauth,
		Blocks:  blocks,
	})

	ts := httptest.NewServer(server)
	defer ts.Close()
	client := ts.Client()

	get := func(target, user, pass string) (int, string) {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if user != "" {
			req.SetBasicAuth(user, pass)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// Public document over real TCP.
	if code, body := get("/index.html", "", ""); code != http.StatusOK || body != "home" {
		t.Fatalf("/index.html = %d %q", code, body)
	}
	// Per-directory policy: /private requires authentication.
	if code, _ := get("/private/secret.html", "", ""); code != http.StatusUnauthorized {
		t.Errorf("anonymous /private = %d, want 401", code)
	}
	if code, body := get("/private/secret.html", "alice", "wonderland"); code != http.StatusOK || body != "classified" {
		t.Errorf("authenticated /private = %d %q", code, body)
	}
	// Attack detection through the file-backed policy.
	if code, _ := get("/cgi-bin/phf?Qalias=x", "", ""); code != http.StatusForbidden {
		t.Errorf("phf = %d, want 403", code)
	}
	if mailbox.Count() != 1 {
		t.Errorf("notifications = %d, want 1", mailbox.Count())
	}
	// 127.0.0.1 (the test client) is now blacklisted: everything is
	// denied by the mandatory system-wide policy.
	if code, _ := get("/index.html", "", ""); code != http.StatusForbidden {
		t.Errorf("blacklisted home = %d, want 403", code)
	}

	// Un-blacklist and edit the root policy on disk: phf is now
	// allowed (a policy officer retiring the signature). The edit is
	// served once the tree is loaded again, without a restart.
	grp.Remove("BadGuys", "127.0.0.1")
	writeFile(t, filepath.Join(siteDir, ".eacl"), "pos_access_right apache *\n")
	if code, _ := get("/cgi-bin/phf?Qalias=x", "", ""); code != http.StatusForbidden {
		t.Errorf("phf after an edit not yet loaded = %d, want 403", code)
	}
	grp.Remove("BadGuys", "127.0.0.1")
	reloaded := gaa.NewDirSource(siteDir, ".eacl")
	if _, err := reloaded.Files(); err != nil {
		t.Fatal(err)
	}
	local.Swap(reloaded)

	if code, _ := get("/cgi-bin/phf?Qalias=x", "", ""); code != http.StatusOK {
		t.Errorf("phf after policy retirement = %d, want 200 (reload)", code)
	}
}

// TestEndToEndWorkloadOverTCP replays the full experiment workload
// through a real listener and checks the aggregate outcome: all
// attacks denied, all legitimate requests served.
func TestEndToEndWorkloadOverTCP(t *testing.T) {
	// The full signature set covering every class in the attack mix
	// (policy72Local is the minimal two-signature variant).
	const fullLocalPolicy = `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *///////////////////* *%c0%af* *%255c* *cmd.exe*
rr_cond_update_log local on:failure/BadGuys/info:IP
neg_access_right apache *
pre_cond_expr local input_length>1000
rr_cond_update_log local on:failure/BadGuys/info:IP
pos_access_right apache *
`
	st, err := gaahttp.NewStack(gaahttp.StackConfig{
		SystemPolicy:  paper.System72,
		LocalPolicies: map[string]string{"*": fullLocalPolicy},
		DocRoot:       workload.DocRoot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ts := httptest.NewServer(st.Server)
	defer ts.Close()
	client := ts.Client()

	do := func(r workload.Request) int {
		t.Helper()
		req, err := http.NewRequest(r.Method, ts.URL+r.Target, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// NOTE: over real TCP every request comes from 127.0.0.1, so the
	// blacklist must stay clear between attack classes for legit
	// traffic to flow afterwards.
	for _, atk := range workload.AttackMix() {
		if code := do(atk); code != http.StatusForbidden {
			t.Errorf("%s = %d, want 403", atk.Attack, code)
		}
		st.Groups.Remove("BadGuys", "127.0.0.1")
	}
	served := 0
	for _, r := range workload.Legit(50, 1) {
		if do(r) == http.StatusOK {
			served++
		}
	}
	if served != 50 {
		t.Errorf("legit served = %d/50", served)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func mkdirAll(t *testing.T, path string) {
	t.Helper()
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
}
