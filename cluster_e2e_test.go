// Cluster end-to-end suite (run with -run TestCluster): two real
// gaa-httpd processes replicate adaptive state over HTTP through
// test-owned TCP proxies whose listeners the test stops and restarts —
// a genuine network partition, not a mock. The drill: a block earned
// on node A is enforced by node B within the SLO; both sides keep
// serving (and keep learning) while partitioned; healing converges the
// fleet to identical block sets; and a kill -9 of one node followed by
// a restart on the same state directory rejoins the mesh and resumes
// replication.
package gaaapi

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// clusterE2ESystem grants everything except to blacklisted sources; no
// threat-level lockdown, so the fleet keeps serving legitimate clients
// throughout the drill.
const clusterE2ESystem = `
eacl_mode narrow
neg_access_right * *
pre_cond_accessid_GROUP local BadGuys
`

// clusterE2ELocal escalates on a phf probe with every replicated
// countermeasure: blacklist, threat level, timed firewall block.
const clusterE2ELocal = `
neg_access_right apache *
pre_cond_regex gnu *phf*
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_set_threat_level local on:failure/medium
rr_cond_block_ip local on:failure/duration:30m
pos_access_right apache *
`

// chaosLink is a TCP proxy standing in for one direction of the
// replication mesh. Cut closes the listener and every live connection
// (the partition); Heal rebinds the same address.
type chaosLink struct {
	t      *testing.T
	listen string // fixed local address, stable across cut/heal
	target string // the peer's real listen address

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]bool
}

func newChaosLink(t *testing.T, target string) *chaosLink {
	l := &chaosLink{t: t, listen: freeAddr(t), target: target, conns: map[net.Conn]bool{}}
	l.Heal()
	t.Cleanup(l.Cut)
	return l
}

// URL is the peer base URL a node should replicate to.
func (l *chaosLink) URL() string { return "http://" + l.listen }

// Heal (re)binds the listener and forwards connections to the target.
func (l *chaosLink) Heal() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ln != nil {
		return
	}
	ln, err := net.Listen("tcp", l.listen)
	if err != nil {
		l.t.Fatalf("chaos link bind %s: %v", l.listen, err)
	}
	l.ln = ln
	go l.accept(ln)
}

// Cut drops the listener and severs every live connection: the pusher
// on the far side sees refused connections, exactly like a partition.
func (l *chaosLink) Cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ln == nil {
		return
	}
	l.ln.Close()
	l.ln = nil
	for c := range l.conns {
		c.Close()
	}
	l.conns = map[net.Conn]bool{}
}

func (l *chaosLink) accept(ln net.Listener) {
	for {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		upstream, err := net.DialTimeout("tcp", l.target, 2*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		l.mu.Lock()
		if l.ln != ln { // cut raced the accept
			l.mu.Unlock()
			client.Close()
			upstream.Close()
			continue
		}
		l.conns[client] = true
		l.conns[upstream] = true
		l.mu.Unlock()
		go func() { io.Copy(upstream, client); upstream.Close() }()
		go func() { io.Copy(client, upstream); client.Close() }()
	}
}

// clientFrom returns an HTTP client whose connections originate from
// the given loopback source address, so each simulated attacker has a
// distinct client IP at the server.
func clientFrom(ip string) *http.Client {
	d := &net.Dialer{
		LocalAddr: &net.TCPAddr{IP: net.ParseIP(ip)},
		Timeout:   2 * time.Second,
	}
	return &http.Client{
		Transport: &http.Transport{DialContext: d.DialContext, DisableKeepAlives: true},
		Timeout:   5 * time.Second,
	}
}

// getStatus fetches url as the given client and returns the HTTP
// status, or 0 on transport error.
func getStatus(c *http.Client, url string) int {
	resp, err := c.Get(url)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// statusSet parses a "blocked:"- or "BadGuys:"-style status line into
// a sorted member list, so two nodes can be compared as sets.
func statusSet(t *testing.T, body, prefix string) []string {
	t.Helper()
	line := statusLine(t, body, prefix)
	members := strings.Fields(strings.TrimSpace(strings.TrimPrefix(line, prefix)))
	sort.Strings(members)
	return members
}

func TestClusterPartitionHealKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	bin := filepath.Join(t.TempDir(), "gaa-httpd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/gaa-httpd").CombinedOutput(); err != nil {
		t.Fatalf("build gaa-httpd: %v\n%s", err, out)
	}

	policyDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(policyDir, "system.eacl"), []byte(clusterE2ESystem), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(policyDir, ".eacl"), []byte(clusterE2ELocal), 0o644); err != nil {
		t.Fatal(err)
	}

	addrA, addrB := freeAddr(t), freeAddr(t)
	baseA, baseB := "http://"+addrA, "http://"+addrB
	// Each node reaches its peer through a chaos proxy the test owns.
	linkToB := newChaosLink(t, addrB) // A's path to B
	linkToA := newChaosLink(t, addrA) // B's path to A
	dirA, dirB := t.TempDir(), t.TempDir()

	start := func(name, addr, dir, peer string) *exec.Cmd {
		cmd := exec.Command(bin,
			"-listen", addr,
			"-system", filepath.Join(policyDir, "system.eacl"),
			"-local-dir", policyDir,
			"-state-dir", dir,
			"-fsync", "always",
			"-snapshot-interval", "1h",
			"-node-id", name,
			"-peers", peer,
			"-replication-interval", "25ms")
		cmd.Stdout = io.Discard
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		waitHTTP(t, "http://"+addr+"/gaa/status")
		return cmd
	}
	start("alpha", addrA, dirA, linkToB.URL())
	nodeB := start("beta", addrB, dirB, linkToA.URL())

	attack := func(c *http.Client, base string) {
		t.Helper()
		status := getStatus(c, base+"/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd")
		if status != http.StatusForbidden {
			t.Fatalf("phf probe against %s = %d, want 403", base, status)
		}
	}
	blockedOn := func(c *http.Client, base string) func() bool {
		return func() bool { return getStatus(c, base+"/index.html") == http.StatusForbidden }
	}

	// Phase 1 — cross-node enforcement SLO: a probe blocked on A must
	// be firewalled on B without B ever seeing a bad request from it.
	atk1 := clientFrom("127.0.0.2")
	attack(atk1, baseA)
	sloStart := time.Now()
	if !waitFor(t, 5*time.Second, nil, blockedOn(atk1, baseB)) {
		t.Fatal("block earned on node A never enforced on node B")
	}
	t.Logf("cross-node enforcement in %v", time.Since(sloStart))
	legit := clientFrom("127.0.0.1")
	if got := getStatus(legit, baseB+"/index.html"); got != http.StatusOK {
		t.Fatalf("legit client on B = %d after replication, want 200", got)
	}

	// Phase 2 — partition drill: cut both directions; each side learns
	// about a different attacker; neither block crosses the cut; both
	// sides keep serving. Healing converges the fleet.
	linkToB.Cut()
	linkToA.Cut()
	atk2, atk3 := clientFrom("127.0.0.3"), clientFrom("127.0.0.4")
	attack(atk2, baseA)
	attack(atk3, baseB)
	time.Sleep(300 * time.Millisecond) // give a leak every chance to cross
	if got := getStatus(atk3, baseA+"/index.html"); got != http.StatusOK {
		t.Fatalf("node A already blocks B's attacker across a cut partition (%d)", got)
	}
	if got := getStatus(atk2, baseB+"/index.html"); got != http.StatusOK {
		t.Fatalf("node B already blocks A's attacker across a cut partition (%d)", got)
	}
	if got := getStatus(legit, baseA+"/index.html"); got != http.StatusOK {
		t.Fatalf("partitioned node A stopped serving legit traffic (%d)", got)
	}

	linkToB.Heal()
	linkToA.Heal()
	if !waitFor(t, 10*time.Second, nil, func() bool {
		return blockedOn(atk3, baseA)() && blockedOn(atk2, baseB)()
	}) {
		t.Fatal("fleet did not converge after heal")
	}
	// Converged means identical: both nodes report the same block set
	// and blacklist.
	if !waitFor(t, 10*time.Second, nil, func() bool {
		bodyA, bodyB := httpBody(t, baseA+"/gaa/status"), httpBody(t, baseB+"/gaa/status")
		return fmt.Sprint(statusSet(t, bodyA, "blocked:")) == fmt.Sprint(statusSet(t, bodyB, "blocked:")) &&
			fmt.Sprint(statusSet(t, bodyA, "BadGuys:")) == fmt.Sprint(statusSet(t, bodyB, "BadGuys:")) &&
			len(statusSet(t, bodyA, "blocked:")) == 3
	}) {
		t.Fatalf("block sets never became identical after heal:\nA: %s\nB: %s",
			httpBody(t, baseA+"/gaa/status"), httpBody(t, baseB+"/gaa/status"))
	}
	// A healthy converged node reports ready — once the peer's acks have
	// drained its lag: Health() reads catching-up until then, which can
	// outlast the block sets comparing equal.
	if !waitFor(t, 10*time.Second, nil, func() bool {
		return getStatus(legit, baseA+"/gaa/healthz") == http.StatusOK
	}) {
		t.Fatalf("healthz on converged node A = %d, want 200", getStatus(legit, baseA+"/gaa/healthz"))
	}

	// Phase 3 — kill -9 and rejoin: B dies hard, restarts on the same
	// state directory, restores its blocks, and replication resumes.
	if err := nodeB.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	nodeB.Wait()
	start("beta", addrB, dirB, linkToA.URL())

	postBody := httpBody(t, baseB+"/gaa/status")
	if got := statusSet(t, postBody, "blocked:"); len(got) != 3 {
		t.Fatalf("restarted B restored blocked=%v, want all 3 attackers", got)
	}
	for _, c := range []*http.Client{atk1, atk2, atk3} {
		if !blockedOn(c, baseB)() {
			t.Fatal("restarted B does not enforce a restored block")
		}
	}
	atk4 := clientFrom("127.0.0.5")
	attack(atk4, baseA)
	if !waitFor(t, 10*time.Second, nil, blockedOn(atk4, baseB)) {
		t.Fatal("replication to restarted B never resumed")
	}
}
