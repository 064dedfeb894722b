package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/workload"
)

const testSystemPolicy = `
eacl_mode narrow
neg_access_right * *
pre_cond_accessid_GROUP local BadGuys
`

const testLocalPolicy = `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi* *///////////////////* *%c0%af*
rr_cond_update_log local on:failure/BadGuys/info:IP
neg_access_right apache *
pre_cond_expr local input_length>1000
pos_access_right apache *
`

func protectedServer(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := gaahttp.NewStack(gaahttp.StackConfig{
		SystemPolicy:  testSystemPolicy,
		LocalPolicies: map[string]string{"*": testLocalPolicy},
		DocRoot:       workload.DocRoot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(st.Server)
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv
}

func TestAttackMixAgainstProtectedServer(t *testing.T) {
	srv := protectedServer(t)
	var out strings.Builder
	err := run([]string{"-target", srv.URL, "-mix", "attacks"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	// Every attack class should appear with status 403.
	for _, class := range []string{"phf", "test-cgi", "slash-flood", "nimda", "overflow"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, class) && strings.Contains(line, "403") {
				found = true
			}
		}
		if !found {
			t.Errorf("no 403 line for %s:\n%s", class, out.String())
		}
	}
}

func TestLegitMixAgainstProtectedServer(t *testing.T) {
	srv := protectedServer(t)
	var out strings.Builder
	err := run([]string{"-target", srv.URL, "-mix", "legit", "-n", "20"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "legit") || !strings.Contains(out.String(), "200") {
		t.Errorf("legit traffic not served:\n%s", out.String())
	}
	// A 403 in the status column is a false positive; the throughput
	// line's req/s figure may contain the digits too.
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[1] == "403" {
			t.Errorf("false positives in legit mix:\n%s", out.String())
		}
	}
}

func TestAllMix(t *testing.T) {
	srv := protectedServer(t)
	var out strings.Builder
	if err := run([]string{"-target", srv.URL, "-mix", "all", "-n", "10"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "legit") || !strings.Contains(out.String(), "phf") {
		t.Errorf("mixed output incomplete:\n%s", out.String())
	}
}

func TestUnknownMix(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mix", "mystery"}, &out); err == nil {
		t.Error("want error for unknown mix")
	}
}

func TestUnreachableTarget(t *testing.T) {
	var out strings.Builder
	// A reserved-but-closed port: every request errors, run still
	// succeeds and reports the transport errors.
	err := run([]string{"-target", "http://127.0.0.1:1", "-mix", "attacks", "-timeout", "200ms"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "transport errors: 5") {
		t.Errorf("expected transport error count:\n%s", out.String())
	}
}

func TestConcurrentWorkers(t *testing.T) {
	srv := protectedServer(t)
	var out strings.Builder
	err := run([]string{"-target", srv.URL, "-mix", "legit", "-n", "40", "-c", "8"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "8 workers") {
		t.Errorf("missing worker count:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "40 requests in") {
		t.Errorf("missing throughput line:\n%s", out.String())
	}
	// Zero/negative concurrency clamps to 1.
	if err := run([]string{"-target", srv.URL, "-mix", "attacks", "-c", "0"}, &out); err != nil {
		t.Fatalf("run -c 0: %v", err)
	}
}
