// Chaos end-to-end suite: drives the full protected-server stack while
// internal/faults injectors disturb condition evaluators and the
// notification transport, and asserts the robustness contract of the
// supervision layer (internal/gaa/supervise.go) and the retry/breaker
// wrapper (internal/notify/reliable.go): every request gets a decision,
// evaluator panics and hangs degrade to MAYBE — never a 5xx — and the
// policy's on:failure countermeasures keep firing through a flaky
// notifier.
package gaaapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gaaapi/internal/faults"
	"gaaapi/internal/gaahttp"
	"gaaapi/internal/notify"
	"gaaapi/internal/retry"
	"gaaapi/internal/scenario"
	"gaaapi/internal/workload"
	"gaaapi/policies/paper"
)

// chaosStack builds the section 7.2 deployment with fault injection on
// evaluators and/or the notifier, retry+breaker on delivery, and a
// 25ms evaluator deadline.
func chaosStack(t *testing.T, evalSpec, notifySpec faults.Spec) (*gaahttp.Stack, *faults.Injector, *faults.Injector) {
	t.Helper()
	evalInj := faults.New(2003, evalSpec)
	notifyInj := faults.New(2004, notifySpec)
	st, err := gaahttp.NewStack(gaahttp.StackConfig{
		SystemPolicy:     paper.System72,
		LocalPolicies:    map[string]string{"*": policy72LocalNotify},
		DocRoot:          workload.DocRoot(),
		PolicyCache:      true,
		EvaluatorTimeout: 25 * time.Millisecond,
		EvaluatorWrapper: evalInj.Evaluator,
		NotifierWrapper:  notifyInj.Notifier,
		ReliableNotify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st, evalInj, notifyInj
}

func serve(st *gaahttp.Stack, r workload.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	st.Server.ServeHTTP(rec, r.HTTPRequest())
	return rec
}

// TestChaosMixedWorkloadAlwaysAnswered replays the legitimate mix with
// every attack class woven in while evaluators hang, panic, error and
// stall and the notifier flakes. The contract: zero crashed requests,
// every request answered, every injected hang cut at the deadline and
// every panic recovered.
func TestChaosMixedWorkloadAlwaysAnswered(t *testing.T) {
	st, evalInj, _ := chaosStack(t,
		faults.Spec{Hang: 0.02, Panic: 0.05, Error: 0.08, Latency: 0.10, LatencyDur: time.Millisecond},
		faults.Spec{Error: 0.3, Latency: 0.3, LatencyDur: 2 * time.Millisecond},
	)
	mix := workload.Interleave(7, workload.Legit(150, 7), workload.AttackMix())

	answered := 0
	for _, r := range mix {
		rec := serve(st, r)
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("%s %s = %d: request crashed under injection", r.Method, r.Target, rec.Code)
		}
		answered++
	}
	if answered != len(mix) {
		t.Fatalf("answered %d of %d requests", answered, len(mix))
	}

	sup := st.API.SupervisionStats()
	es := evalInj.Stats()
	if es.Panics == 0 || es.Hangs == 0 {
		t.Fatalf("injection too quiet to prove anything: %+v", es)
	}
	if sup.Panics != es.Panics {
		t.Errorf("recovered %d of %d injected panics", sup.Panics, es.Panics)
	}
	if sup.Timeouts == 0 {
		t.Errorf("injected %d hangs but recorded no supervised timeout", es.Hangs)
	}
}

// TestChaosPanicYieldsMaybeNot500: with EVERY evaluator panicking, each
// condition degrades to MAYBE, the composed decision is MAYBE, and the
// guard declines to the server's native access control — the paper's
// fallback — instead of crashing the request.
func TestChaosPanicYieldsMaybeNot500(t *testing.T) {
	st, evalInj, _ := chaosStack(t, faults.Spec{Panic: 1}, faults.Spec{})
	rec := serve(st, workload.Request{Method: "GET", Target: "/index.html", ClientIP: "10.0.0.9"})
	if rec.Code != http.StatusOK {
		t.Fatalf("/index.html under total evaluator panic = %d, want 200 via native fallback", rec.Code)
	}
	sup := st.API.SupervisionStats()
	if sup.Panics == 0 || sup.Panics != evalInj.Stats().Panics {
		t.Errorf("supervision stats %+v vs injected %+v: panics not all recovered", sup, evalInj.Stats())
	}
}

// TestChaosHangYieldsMaybeNot500 is the hang twin: every evaluator
// blocks until cut off at the 25ms deadline; the request is answered in
// bounded time with the same MAYBE fallback.
func TestChaosHangYieldsMaybeNot500(t *testing.T) {
	st, _, _ := chaosStack(t, faults.Spec{Hang: 1}, faults.Spec{})
	start := time.Now()
	rec := serve(st, workload.Request{Method: "GET", Target: "/index.html", ClientIP: "10.0.0.9"})
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("hung evaluators = %d, want 200 via native fallback", rec.Code)
	}
	// The request evaluates a handful of conditions, each cut at 25ms;
	// the whole request must stay well under a second.
	if elapsed > 2*time.Second {
		t.Fatalf("request took %v: hangs not cut at the deadline", elapsed)
	}
	if st.API.SupervisionStats().Timeouts == 0 {
		t.Error("no supervised timeout recorded")
	}
}

// TestChaosDenyAndBlacklistSurviveNotifierOutage: the notifier is
// completely dead (every delivery errors). Attacks must still be
// denied, their sources still blacklisted (on:failure/BadGuys), and
// after the breaker's threshold of exhausted deliveries the hot path
// stops paying for the dead transport (short-circuits).
func TestChaosDenyAndBlacklistSurviveNotifierOutage(t *testing.T) {
	st, _, notifyInj := chaosStack(t, faults.Spec{}, faults.Spec{Error: 1})

	attackers := []string{"192.0.2.11", "192.0.2.12", "192.0.2.13", "192.0.2.14", "192.0.2.15"}
	for i, ip := range attackers {
		rec := serve(st, workload.PhfScan(ip))
		if rec.Code != http.StatusForbidden {
			t.Fatalf("attack %d from %s = %d, want 403 despite notifier outage", i, ip, rec.Code)
		}
		if !st.Groups.Contains("BadGuys", ip) {
			t.Fatalf("attacker %s not blacklisted while the notifier is down", ip)
		}
	}

	rs := st.Reliable.Stats()
	if rs.Delivered != 0 {
		t.Errorf("delivered = %d through a dead transport", rs.Delivered)
	}
	if rs.Failures == 0 || rs.Retries == 0 {
		t.Errorf("stats = %+v, want exhausted retried deliveries", rs)
	}
	if rs.Breaker != retry.Open {
		t.Errorf("breaker = %v, want open after sustained failures", rs.Breaker)
	}
	if rs.ShortCircuits == 0 {
		t.Errorf("stats = %+v, want short-circuited deliveries once open", rs)
	}
	if got := notifyInj.Stats().Errors; got == 0 {
		t.Error("injector reports no notifier errors; scenario did not run")
	}
	if st.Mailbox.Count() != 0 {
		t.Errorf("mailbox = %d, want empty", st.Mailbox.Count())
	}
}

// TestChaosNotificationsDeliveredThroughFlakyTransport: with the
// transport failing roughly half its attempts, bounded retry still gets
// the policy's on:failure notifications through.
func TestChaosNotificationsDeliveredThroughFlakyTransport(t *testing.T) {
	st, _, _ := chaosStack(t, faults.Spec{}, faults.Spec{Error: 0.45})
	for i, ip := range []string{"192.0.2.21", "192.0.2.22", "192.0.2.23", "192.0.2.24"} {
		if rec := serve(st, workload.PhfScan(ip)); rec.Code != http.StatusForbidden {
			t.Fatalf("attack %d = %d, want 403", i, rec.Code)
		}
	}
	if st.Mailbox.Count() == 0 {
		t.Errorf("no notification delivered through the flaky transport; reliable stats %+v", st.Reliable.Stats())
	}
	for _, m := range st.Mailbox.Messages() {
		if m.Tag != "cgiexploit" {
			t.Errorf("notification tag = %q, want cgiexploit", m.Tag)
		}
	}
}

// TestChaosRedirectSurvivesInjectedLatency: the adaptive-redirection
// translation of an unevaluated pre_cond_redirect (paper section 6)
// must survive evaluator latency injection — the delayed conditions
// still evaluate, the redirect still fires.
func TestChaosRedirectSurvivesInjectedLatency(t *testing.T) {
	evalInj := faults.New(5, faults.Spec{Latency: 1, LatencyDur: time.Millisecond})
	st, err := gaahttp.NewStack(gaahttp.StackConfig{
		SystemPolicy: paper.System72,
		LocalPolicies: map[string]string{"/mirror/*": `
pos_access_right apache *
pre_cond_redirect local http://replica.example.org/
`},
		DocRoot:          map[string]string{"/mirror/data.html": "mirrored"},
		EvaluatorTimeout: 25 * time.Millisecond,
		EvaluatorWrapper: evalInj.Evaluator,
		ReliableNotify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rec := serve(st, workload.Request{Method: "GET", Target: "/mirror/data.html", ClientIP: "10.0.0.5"})
	if rec.Code != http.StatusFound {
		t.Fatalf("redirect under latency injection = %d, want 302", rec.Code)
	}
	if loc := rec.Header().Get("Location"); loc != "http://replica.example.org/" {
		t.Errorf("Location = %q", loc)
	}
	if evalInj.Stats().Latencies == 0 {
		t.Error("latency injector never fired; scenario did not run")
	}
}

// TestChaosBreakerRecovers closes the loop on the breaker lifecycle at
// the HTTP level: outage trips it open, the cooldown elapses on the
// stack's simulated clock, and the next attack's notification probes
// and re-closes it.
func TestChaosBreakerRecovers(t *testing.T) {
	// The stack's own Reliable, on the simulated clock, around a
	// switchable injector chain in front of the mailbox.
	clock := scenario.NewSimClock()
	dead := faults.New(11, faults.Spec{Error: 1})
	healed := false
	st, err := gaahttp.NewStack(gaahttp.StackConfig{
		SystemPolicy:  paper.System72,
		LocalPolicies: map[string]string{"*": policy72LocalNotify},
		DocRoot:       workload.DocRoot(),
		Clock:         clock.Now,
		NotifierWrapper: func(mailbox notify.Notifier) notify.Notifier {
			return notifierSwitch{healthy: mailbox, faulty: dead.Notifier(mailbox), healed: &healed}
		},
		ReliableNotify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Outage: three attacks exhaust their retries and open the breaker.
	for _, ip := range []string{"192.0.2.31", "192.0.2.32", "192.0.2.33"} {
		if rec := serve(st, workload.PhfScan(ip)); rec.Code != http.StatusForbidden {
			t.Fatalf("attack during outage = %d, want 403", rec.Code)
		}
	}
	if got := st.Reliable.BreakerState(); got != retry.Open {
		t.Fatalf("breaker = %v, want open", got)
	}

	// Transport heals; once the one-second cooldown elapses the next
	// attack's notification is the half-open probe that re-closes the
	// circuit. It comes from a fresh source: a reused one is already
	// blacklisted and gets denied before the notify condition fires.
	healed = true
	clock.Advance(time.Second)
	if rec := serve(st, workload.PhfScan("10.66.0.33")); rec.Code != http.StatusForbidden {
		t.Fatalf("attack after heal = %d, want 403", rec.Code)
	}
	if got := st.Reliable.BreakerState(); got != retry.Closed {
		t.Fatalf("breaker = %v, want closed after successful probe", got)
	}
	if st.Mailbox.Count() == 0 {
		t.Error("probe notification not delivered")
	}
}

// notifierSwitch routes to the faulty transport until *healed flips.
type notifierSwitch struct {
	healthy, faulty notify.Notifier
	healed          *bool
}

func (s notifierSwitch) Notify(ctx context.Context, m notify.Message) error {
	if *s.healed {
		return s.healthy.Notify(ctx, m)
	}
	return s.faulty.Notify(ctx, m)
}
