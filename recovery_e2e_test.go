// Crash-recovery end-to-end suite (run with -run Recovery): kill the
// protected server mid-burst — in-process by abandoning a stack without
// Close, and for real with SIGKILL on a gaa-httpd subprocess — restart
// it on the same state directory, and assert the adaptive state the
// attack workload built up (firewall blocks with their original
// deadlines, threat level, lockout counters, blacklist groups) survives
// and keeps being enforced.
package gaaapi

import (
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/gaahttp"
	"gaaapi/internal/ids"
	"gaaapi/internal/workload"
	"gaaapi/policies/paper"
)

// recoveryLocal escalates on a phf probe with every adaptive
// countermeasure the store persists: blacklist group, threat level,
// timed firewall block, and a lockout counter.
const recoveryLocal = `
neg_access_right apache *
pre_cond_regex gnu *phf* *test-cgi*
rr_cond_update_log local on:failure/BadGuys/info:IP
rr_cond_set_threat_level local on:failure/high
rr_cond_block_ip local on:failure/duration:10m
rr_cond_count local on:failure/cgi_probe
pos_access_right apache *
`

func recoveryStack(t *testing.T, dir string) *gaahttp.Stack {
	t.Helper()
	st, err := gaahttp.NewStack(gaahttp.StackConfig{
		SystemPolicy:  paper.System72,
		LocalPolicies: map[string]string{"*": recoveryLocal},
		DocRoot:       workload.DocRoot(),
		PolicyCache:   true,
		StateDir:      dir,
		Fsync:         "never", // kill -9 model: the OS survives, fsync is not what saves us
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRecoveryKillRestartInProcess drives the section 7.2 workload,
// abandons the stack without Close (the in-process kill -9: buffered
// WAL bytes are visible to a reopen through the page cache), restarts
// on the same directory and checks every adaptive artifact of the
// attack burst is restored and still enforced.
func TestRecoveryKillRestartInProcess(t *testing.T) {
	dir := t.TempDir()
	st1 := recoveryStack(t, dir)

	attackers := []string{"192.0.2.41", "192.0.2.42", "192.0.2.43"}
	for i, r := range workload.Interleave(7, workload.Legit(30, 7), nil) {
		if rec := serve(st1, r); rec.Code != http.StatusOK {
			t.Fatalf("legit request %d = %d before the burst", i, rec.Code)
		}
	}
	for _, ip := range attackers {
		if rec := serve(st1, workload.PhfScan(ip)); rec.Code != http.StatusForbidden {
			t.Fatalf("attack from %s = %d, want 403", ip, rec.Code)
		}
	}

	if st1.Threat.Level() != ids.High {
		t.Fatalf("threat = %v after burst, want high", st1.Threat.Level())
	}
	before := st1.Blocks.Entries()
	if len(before) != len(attackers) {
		t.Fatalf("blocks before kill = %+v, want %d", before, len(attackers))
	}
	for _, ip := range attackers {
		if got := st1.Counters.CountSince(conditions.CounterKey("cgi_probe", ip), time.Hour); got != 1 {
			t.Fatalf("lockout counter for %s = %d, want 1", ip, got)
		}
	}

	// Kill -9: no Close, no Sync, no compaction. Reopen the directory.
	st2 := recoveryStack(t, dir)
	defer st2.Close()

	if st2.Threat.Level() != ids.High {
		t.Fatalf("restored threat = %v, want high", st2.Threat.Level())
	}
	after := st2.Blocks.Entries()
	if len(after) != len(before) {
		t.Fatalf("restored blocks = %+v, want %+v", after, before)
	}
	for i := range before {
		if after[i].Addr != before[i].Addr || !after[i].Expiry.Equal(before[i].Expiry) ||
			after[i].Permanent != before[i].Permanent {
			t.Fatalf("block %d restored as %+v, want %+v (original deadline lost)",
				i, after[i], before[i])
		}
	}
	for _, ip := range attackers {
		if got := st2.Counters.CountSince(conditions.CounterKey("cgi_probe", ip), time.Hour); got != 1 {
			t.Fatalf("restored lockout counter for %s = %d, want 1", ip, got)
		}
	}
	sum := st2.Persist.Restored()
	if sum.Blocks != len(attackers) || sum.ThreatLevel != "high" || sum.GroupMembers != len(attackers) {
		t.Fatalf("restore summary = %+v", sum)
	}

	// Enforcement, not just bookkeeping: every attacker is still denied
	// (netblock + BadGuys), a clean client still passes — no mis-grants,
	// no collateral lockout.
	for _, ip := range attackers {
		if !st2.Groups.Contains("BadGuys", ip) {
			t.Fatalf("attacker %s missing from restored blacklist", ip)
		}
		if !st2.Blocks.Blocked(ip) {
			t.Fatalf("attacker %s not firewall-blocked after restart", ip)
		}
		rec := serve(st2, workload.Request{Method: "GET", Target: "/index.html", ClientIP: ip})
		if rec.Code != http.StatusForbidden {
			t.Fatalf("restored state mis-granted %s: GET /index.html = %d", ip, rec.Code)
		}
	}
	if rec := serve(st2, workload.Request{Method: "GET", Target: "/index.html", ClientIP: "10.0.0.9"}); rec.Code != http.StatusOK {
		t.Fatalf("legit client denied after restart: %d", rec.Code)
	}
}

// TestRecoveryExpiredBlocksNotResurrected: a block whose deadline
// passed while the server was down must not come back.
func TestRecoveryExpiredBlocksNotResurrected(t *testing.T) {
	dir := t.TempDir()
	st1 := recoveryStack(t, dir)
	st1.Blocks.Block("192.0.2.50", 50*time.Millisecond) // journaled via the stack's wiring
	st1.Blocks.Block("192.0.2.51", time.Hour)
	if !waitFor(t, 10*time.Second, nil, func() bool { return !st1.Blocks.Blocked("192.0.2.50") }) {
		t.Fatal("50ms block never expired")
	}

	st2 := recoveryStack(t, dir)
	defer st2.Close()
	if st2.Blocks.Blocked("192.0.2.50") {
		t.Fatal("expired block resurrected by replay")
	}
	if !st2.Blocks.Blocked("192.0.2.51") {
		t.Fatal("live block lost")
	}
	if sum := st2.Persist.Restored(); sum.Blocks != 1 || sum.ExpiredBlocks != 1 {
		t.Fatalf("restore summary = %+v, want 1 live / 1 expired", sum)
	}
}

// TestRecoverySubprocessKill9 is the real thing: a gaa-httpd child
// process takes an attack burst over HTTP, dies on SIGKILL mid-run, and
// a fresh process on the same -state-dir must report the restored
// blacklist and threat level on /gaa/status.
func TestRecoverySubprocessKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a subprocess")
	}
	bin := filepath.Join(t.TempDir(), "gaa-httpd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/gaa-httpd").CombinedOutput(); err != nil {
		t.Fatalf("build gaa-httpd: %v\n%s", err, out)
	}
	stateDir := t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr

	start := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-listen", addr,
			"-state-dir", stateDir,
			"-fsync", "always",
			"-snapshot-interval", "1h")
		cmd.Stdout = io.Discard
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("start gaa-httpd: %v", err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		waitHTTP(t, base+"/gaa/status")
		return cmd
	}

	first := start()
	// Attack burst: the demo policy blacklists the source, escalates the
	// threat level and records the probes.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(base + "/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd")
		if err != nil {
			t.Fatalf("attack %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("attack %d = %d, want 403", i, resp.StatusCode)
		}
	}
	preStatus := httpBody(t, base+"/gaa/status")
	preThreat := statusLine(t, preStatus, "threat level:")
	preBadGuys := statusLine(t, preStatus, "BadGuys:")
	if !strings.Contains(preBadGuys, "127.0.0.1") {
		t.Fatalf("attacker not blacklisted before kill: %q", preBadGuys)
	}

	// SIGKILL mid-burst: no graceful shutdown, no final compaction.
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	first.Wait()

	start()
	postStatus := httpBody(t, base+"/gaa/status")
	if got := statusLine(t, postStatus, "threat level:"); got != preThreat {
		t.Fatalf("threat after restart = %q, want %q", got, preThreat)
	}
	if got := statusLine(t, postStatus, "BadGuys:"); got != preBadGuys {
		t.Fatalf("blacklist after restart = %q, want %q", got, preBadGuys)
	}
	recLine := statusLine(t, postStatus, "state recovery:")
	if !strings.Contains(recLine, "replayed=") || strings.Contains(recLine, "replayed=0") {
		t.Fatalf("restart did not replay the WAL: %q", recLine)
	}

	// The restored blacklist must still be enforced over HTTP.
	resp, err := http.Get(base + "/index.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("blacklisted client after restart = %d, want 403", resp.StatusCode)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHTTP(t *testing.T, url string) {
	t.Helper()
	if !waitFor(t, 10*time.Second, nil, func() bool {
		resp, err := http.Get(url)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return true
	}) {
		t.Fatalf("server at %s never came up", url)
	}
}

func httpBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func statusLine(t *testing.T, body, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("status output has no %q line:\n%s", prefix, body)
	return ""
}
