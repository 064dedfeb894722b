package gaahttp

import (
	"net/http"
	"sync"
	"testing"

	"gaaapi/policies/paper"
)

// TestRequestRateLimitRecipe expresses per-client request-rate
// throttling (a DoS countermeasure of the paper's section 1) as pure
// policy: every request is counted (rr_cond_count on:any) and a neg
// entry fires once a client's count in the window crosses the
// threshold.
func TestRequestRateLimitRecipe(t *testing.T) {
	const local = `
neg_access_right apache *
pre_cond_threshold local counter=req_rate key=client_ip max=10 window=60s
pos_access_right apache *
rr_cond_count local on:any/req_rate
`
	st, err := NewStack(StackConfig{
		LocalPolicies: map[string]string{"*": local},
		DocRoot:       map[string]string{"/index.html": "home"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The first 10 requests pass; from the 11th the threshold entry
	// fires first.
	for i := 1; i <= 10; i++ {
		if code := serveTarget(t, st, "/index.html", "10.0.0.8"); code != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, code)
		}
	}
	if code := serveTarget(t, st, "/index.html", "10.0.0.8"); code != http.StatusForbidden {
		t.Errorf("request 11 = %d, want 403 (rate limited)", code)
	}
	// Another client has its own budget.
	if code := serveTarget(t, st, "/index.html", "10.0.0.9"); code != http.StatusOK {
		t.Errorf("other client = %d, want 200", code)
	}
}

// TestConcurrentMixedWorkloadSoak hammers the full stack from many
// goroutines with a mix of legitimate requests and attacks. Assertions
// are aggregate: attacks always denied, and legit clients only ever
// see 200 (no attacker shares their address). Run with -race in CI.
func TestConcurrentMixedWorkloadSoak(t *testing.T) {
	st, err := NewStack(StackConfig{
		SystemPolicy:  paper.System72,
		LocalPolicies: map[string]string{"*": policy72Local},
		DocRoot: map[string]string{
			"/index.html":      "home",
			"/docs/guide.html": "guide",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	record := func(msg string) {
		mu.Lock()
		defer mu.Unlock()
		if len(failures) < 10 {
			failures = append(failures, msg)
		}
	}

	for worker := 0; worker < 16; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			legitIP := "10.0.1." + itoa(worker+1)
			attackIP := "192.0.2." + itoa(worker+1)
			for i := 0; i < 40; i++ {
				if i%4 == 3 {
					if code := serveTarget(t, st, "/cgi-bin/phf?Qalias=x", attackIP); code != http.StatusForbidden {
						record("attack served: " + itoa(code))
					}
				} else {
					if code := serveTarget(t, st, "/index.html", legitIP); code != http.StatusOK {
						record("legit denied: " + itoa(code))
					}
				}
			}
		}(worker)
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	// Every attacker address ended up blacklisted.
	if got := st.Groups.Len("BadGuys"); got != 16 {
		t.Errorf("blacklist size = %d, want 16", got)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
