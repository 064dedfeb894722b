package scenario

import (
	"net/http/httptest"
	"testing"
	"time"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/workload"
)

// clusterSpec is a lockout deployment: three failed logins from one
// source block it at the firewall, blacklist it, and escalate the
// threat level.
func clusterSpec() gaahttp.StackConfig {
	const local = `
neg_access_right apache *
pre_cond_threshold local counter=login_attempt key=client_ip max=2 window=10m
rr_cond_block_ip local on:failure/duration:30m
rr_cond_update_log local on:failure/BadGuys
rr_cond_set_threat_level local on:failure/medium

pos_access_right apache GET /account/*
pre_cond_accessid_USER apache *
rr_cond_count local on:failure/login_attempt

pos_access_right apache *
`
	return gaahttp.StackConfig{
		LocalPolicies: map[string]string{"*": local},
		DocRoot:       accountSite(),
		Users:         map[string]string{"alice": "alice-pw"},
	}
}

// getReq is a plain anonymous page fetch from ip.
func getReq(ip string) workload.Request {
	return workload.Request{Method: "GET", Target: "/index.html", ClientIP: ip}
}

// serveOn sends one request to a specific node (bypassing round-robin)
// and returns the status. Unlike Do it does not settle replication.
func serveOn(t *ClusterTarget, node int, r workload.Request) int {
	rec := httptest.NewRecorder()
	t.Nodes[node].Server.ServeHTTP(rec, r.HTTPRequest())
	return rec.Code
}

// attack runs enough failed logins from ip on one node to trip the
// lockout threshold.
func attack(t *ClusterTarget, node int, ip string) {
	for i := 0; i < 4; i++ {
		serveOn(t, node, workload.Login(ip, "/account/profile.html", "alice", "wrong-pw"))
	}
}

func TestClusterTargetCrossNodeEnforcement(t *testing.T) {
	ct, err := NewClusterTarget(clusterSpec(), 3)
	if err != nil {
		t.Fatalf("NewClusterTarget: %v", err)
	}
	defer ct.Close()

	const attacker = "198.51.100.7"
	attack(ct, 0, attacker)
	if serveOn(ct, 0, getReq(attacker)) != 403 {
		t.Fatal("attacker not blocked on the node it attacked")
	}

	// The block must propagate: every other node firewalls the
	// attacker without ever having seen a bad request from it.
	ct.Settle()
	if !ct.Converged() {
		t.Fatal("fleet not converged after settling")
	}
	for i := 1; i < 3; i++ {
		if got := serveOn(ct, i, getReq(attacker)); got != 403 {
			t.Fatalf("node %d serves the attacker with %d", i, got)
		}
	}

	obs := ct.Observe()
	if obs.Threat != "medium" {
		t.Fatalf("merged threat = %s, want medium", obs.Threat)
	}
	found := false
	for _, m := range obs.Blacklist["BadGuys"] {
		if m == attacker {
			found = true
		}
	}
	if !found {
		t.Fatalf("attacker missing from merged blacklist: %v", obs.Blacklist)
	}
}

func TestClusterTargetPartitionDrill(t *testing.T) {
	ct, err := NewClusterTarget(clusterSpec(), 2)
	if err != nil {
		t.Fatalf("NewClusterTarget: %v", err)
	}
	defer ct.Close()

	ct.Partition(1)

	// Each side of the partition learns about a different attacker.
	const atkA, atkB = "198.51.100.21", "198.51.100.22"
	attack(ct, 0, atkA)
	attack(ct, 1, atkB)

	// The partition holds: neither side learns the other's block.
	ct.Settle()
	if ct.Nodes[0].Blocks.Blocked(atkB) || ct.Nodes[1].Blocks.Blocked(atkA) {
		t.Fatal("blocks crossed a cut partition")
	}
	if ct.Converged() {
		t.Fatal("partitioned fleet claims convergence")
	}

	// The failed pushes back off on the campaign clock: healing alone
	// ships nothing until the clock passes the next attempt.
	ct.Heal(1)
	ct.Settle()
	if ct.Converged() {
		t.Fatal("a backing-off fleet converged before the clock moved")
	}
	ct.Advance(3 * time.Second) // past the breaker cooldown and the backoff cap
	ct.Settle()
	if !ct.Converged() {
		t.Fatal("fleet not converged after heal")
	}
	if !ct.Nodes[0].Blocks.Blocked(atkB) || !ct.Nodes[1].Blocks.Blocked(atkA) {
		t.Fatal("blocks not exchanged after heal")
	}

	// Both attackers are firewalled fleet-wide.
	for node := 0; node < 2; node++ {
		for _, ip := range []string{atkA, atkB} {
			if got := serveOn(ct, node, getReq(ip)); got != 403 {
				t.Fatalf("node %d serves %s with %d after heal", node, ip, got)
			}
		}
	}
	obs := ct.Observe()
	if len(obs.Blocked) != 2 {
		t.Fatalf("merged blocked = %v", obs.Blocked)
	}
}

func TestClusterTargetRoundRobin(t *testing.T) {
	ct, err := NewClusterTarget(clusterSpec(), 2)
	if err != nil {
		t.Fatalf("NewClusterTarget: %v", err)
	}
	defer ct.Close()

	// A full attack burst through the load-balancer path: requests
	// alternate nodes, so each node sees only half the failures — the
	// replicated counter events must still trip the threshold.
	const attacker = "198.51.100.33"
	for i := 0; i < 8; i++ {
		if _, err := ct.Do(workload.Login(attacker, "/account/profile.html", "alice", "wrong-pw")); err != nil {
			t.Fatalf("Do: %v", err)
		}
	}
	if !ct.Nodes[0].Blocks.Blocked(attacker) || !ct.Nodes[1].Blocks.Blocked(attacker) {
		t.Fatal("spread attack not blocked fleet-wide")
	}
}
