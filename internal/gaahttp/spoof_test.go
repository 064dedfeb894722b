package gaahttp

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/ids"
	"gaaapi/policies/paper"
)

func newRequest(target, ip string) *http.Request {
	req := httptest.NewRequest("GET", target, nil)
	req.RemoteAddr = ip + ":40000"
	return req
}

// TestSpoofSafeguardEndToEnd drives the paper's anti-DoS safeguard
// through the full stack: an attack arriving from a spoof-suspected
// source is still denied, but the automated countermeasures (blacklist
// growth) are withheld and the attack report's recommendation is
// downgraded, so an attacker cannot weaponize the response system
// against an impersonated host.
func TestSpoofSafeguardEndToEnd(t *testing.T) {
	st, err := NewStack(StackConfig{
		SystemPolicy:   paper.System72,
		LocalPolicies:  map[string]string{"*": policy72Local},
		DocRoot:        map[string]string{"/index.html": "home"},
		SpoofedSources: []string{"198.51.100.*"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reports := collectReports(st.Bus)

	// Attack "from" the spoof-suspected range: denied, not blacklisted.
	w := serve(t, st, phfFrom("198.51.100.7"))
	if w != http.StatusForbidden {
		t.Fatalf("spoofed attack = %d, want 403 (still denied)", w)
	}
	if st.Groups.Contains("BadGuys", "198.51.100.7") {
		t.Error("spoof-suspected source blacklisted")
	}
	// The victim of the impersonation can still reach the server.
	if code := serveTarget(t, st, "/index.html", "198.51.100.7"); code != http.StatusOK {
		t.Errorf("impersonated host = %d, want 200 (no collateral lockout)", code)
	}

	// A genuine attacker is blacklisted as usual.
	if code := serve(t, st, phfFrom("192.0.2.1")); code != http.StatusForbidden {
		t.Fatalf("genuine attack = %d, want 403", code)
	}
	if !st.Groups.Contains("BadGuys", "192.0.2.1") {
		t.Error("genuine attacker not blacklisted")
	}

	// The attack reports differ in recommendation.
	var spoofedRec, genuineRec string
	for _, r := range *reports {
		if r.Kind != ids.DetectedAttack {
			continue
		}
		switch r.ClientIP {
		case "198.51.100.7":
			spoofedRec = r.Recommendation
		case "192.0.2.1":
			genuineRec = r.Recommendation
		}
	}
	if !strings.Contains(spoofedRec, "do not blacklist") {
		t.Errorf("spoofed report recommendation = %q, want withdrawal", spoofedRec)
	}
	if !strings.Contains(genuineRec, "blacklist source address") {
		t.Errorf("genuine report recommendation = %q", genuineRec)
	}
}

func phfFrom(ip string) reqSpec {
	return reqSpec{target: "/cgi-bin/phf?Qalias=x", ip: ip}
}

type reqSpec struct {
	target string
	ip     string
}

func serve(t *testing.T, st *Stack, spec reqSpec) int {
	t.Helper()
	return serveTarget(t, st, spec.target, spec.ip)
}

func serveTarget(t *testing.T, st *Stack, target, ip string) int {
	t.Helper()
	w := httptest.NewRecorder()
	st.Server.ServeHTTP(w, newRequest(target, ip))
	return w.Code
}

// TestSpoofedProbeLeavesThreatLevel: the section 3 spoof gate covers
// the threat level. phf probes from HighAfter spoof-suspected addresses
// leave it where it was, and one inside a lockdown does not renew the
// lockdown's hold.
func TestSpoofedProbeLeavesThreatLevel(t *testing.T) {
	clock := &simClock{now: time.Date(2003, 5, 1, 9, 0, 0, 0, time.UTC)}
	st, err := NewStack(StackConfig{
		SystemPolicy:   paper.System72,
		LocalPolicies:  map[string]string{"*": policy72Local},
		DocRoot:        map[string]string{"/index.html": "home"},
		SpoofedSources: []string{"203.0.113.*"},
		LevelValues:    tunedLevels,
		Clock:          clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	probe := func(ip string) {
		t.Helper()
		if code := serveTarget(t, st, "/cgi-bin/phf?Qalias=x", ip); code != http.StatusForbidden {
			t.Fatalf("phf probe from %s = %d, want 403", ip, code)
		}
	}

	sources := ids.DefaultCorrelatorConfig().HighAfter
	for i := 1; i <= sources; i++ {
		probe(fmt.Sprintf("203.0.113.%d", i))
	}
	if got := st.Threat.Level(); got != ids.Low {
		t.Fatalf("level = %s after probes from %d spoofed sources, want low", got, sources)
	}

	for i := 1; i <= sources; i++ {
		probe(fmt.Sprintf("192.0.2.%d", i))
	}
	if got := st.Threat.Level(); got != ids.High {
		t.Fatalf("level = %s after probes from %d real sources, want high", got, sources)
	}
	clock.Advance(4 * time.Minute)
	probe("203.0.113.99")
	clock.Advance(time.Minute) // five minutes, the hold, since the last real probe
	st.Tick(clock.Now())
	if got := st.Threat.Level(); got != ids.Medium {
		t.Fatalf("level = %s one hold after the last real probe, want medium: a spoofed probe renewed the hold", got)
	}
}
