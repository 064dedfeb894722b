package experiments

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"gaaapi/internal/faults"
	"gaaapi/internal/gaahttp"
	"gaaapi/internal/statestore"
	"gaaapi/internal/workload"
	"gaaapi/policies/paper"
)

// FaultDrillOptions configures a fault drill (gaa-bench -drill).
type FaultDrillOptions struct {
	// Requests is the workload size (default 400).
	Requests int
	// Seed drives both the workload and the fault injectors.
	Seed int64
	// EvalSpec / NotifySpec are the injection probabilities for
	// condition evaluators and the notification transport.
	EvalSpec, NotifySpec faults.Spec
	// DiskSpec disturbs the crash-safe state store (short writes, fsync
	// errors); when active the drill runs with a temporary -state-dir
	// and additionally verifies that the torn journal still recovers.
	DiskSpec faults.Spec
	// StateDir hosts the drill's state store when DiskSpec is active
	// (required then — the caller owns the directory's lifetime).
	StateDir string
	// Timeout is the per-evaluator deadline (default 25ms); it is what
	// cuts injected hangs off.
	Timeout time.Duration
}

func (o FaultDrillOptions) defaults() FaultDrillOptions {
	if o.Requests <= 0 {
		o.Requests = 400
	}
	if o.Seed == 0 {
		o.Seed = 2003
	}
	if o.Timeout <= 0 {
		o.Timeout = 25 * time.Millisecond
	}
	return o
}

// FaultDrill replays the section 7.2 deployment's workload (legitimate
// mix plus the attack classes) while the configured injectors disturb
// condition evaluators and the notification transport, and verifies
// the robustness contract: every request is answered (no crashes, no
// stalls past the deadline budget), injected evaluator faults degrade
// to MAYBE decisions rather than 5xx responses, and the circuit
// breaker keeps a dead notifier off the hot path. It returns an error
// — for CI — when the contract is violated.
func FaultDrill(w io.Writer, o FaultDrillOptions) error {
	o = o.defaults()

	evalInj := faults.New(o.Seed, o.EvalSpec)
	notifyInj := faults.New(o.Seed+1, o.NotifySpec)
	diskInj := faults.New(o.Seed+2, o.DiskSpec)

	cfg := gaahttp.StackConfig{
		SystemPolicy:     paper.System72,
		LocalPolicies:    map[string]string{"*": paper.Local72},
		RuntimeValues:    paperValues(),
		DocRoot:          workload.DocRoot(),
		PolicyCache:      true,
		EvaluatorTimeout: o.Timeout,
		EvaluatorWrapper: evalInj.Evaluator,
		NotifierWrapper:  notifyInj.Notifier,
		ReliableNotify:   true,
	}
	if o.DiskSpec.Active() {
		if o.StateDir == "" {
			return fmt.Errorf("fault drill: disk injection needs a state directory")
		}
		cfg.StateDir = o.StateDir
		cfg.StoreFS = diskInj.FS(statestore.OS)
	}
	st, err := gaahttp.NewStack(cfg)
	if err != nil {
		return err
	}
	defer st.Close()

	// Workload: legitimate browsing with every attack class woven in.
	legit := workload.Legit(o.Requests, o.Seed)
	mix := workload.Interleave(o.Seed, legit, workload.AttackMix())

	statuses := make(map[int]int)
	crashed := 0
	var slowest time.Duration
	start := time.Now()
	for _, r := range mix {
		t0 := time.Now()
		rec := httptest.NewRecorder()
		st.Server.ServeHTTP(rec, r.HTTPRequest())
		if d := time.Since(t0); d > slowest {
			slowest = d
		}
		statuses[rec.Code]++
		if rec.Code >= http.StatusInternalServerError {
			crashed++
		}
	}
	elapsed := time.Since(start)

	sup := st.API.SupervisionStats()
	es, ns := evalInj.Stats(), notifyInj.Stats()
	rs := st.Reliable.Stats()

	fmt.Fprintf(w, "fault drill: %d requests in %v (slowest %v)\n", len(mix), elapsed.Round(time.Millisecond), slowest.Round(time.Millisecond))
	fmt.Fprintf(w, "  injected: evaluators[%s] hangs=%d panics=%d errors=%d latencies=%d\n",
		o.EvalSpec, es.Hangs, es.Panics, es.Errors, es.Latencies)
	fmt.Fprintf(w, "            notifier[%s] hangs=%d panics=%d errors=%d latencies=%d\n",
		o.NotifySpec, ns.Hangs, ns.Panics, ns.Errors, ns.Latencies)
	if o.DiskSpec.Active() {
		ds := diskInj.Stats()
		fmt.Fprintf(w, "            disk[%s] short-writes=%d sync-errors=%d journal-errors=%d\n",
			o.DiskSpec, ds.ShortWrites, ds.SyncErrors, st.Persist.JournalErrors())
	}
	fmt.Fprintf(w, "  supervised: timeouts=%d panics=%d errors=%d invalid=%d\n",
		sup.Timeouts, sup.Panics, sup.Errors, sup.Invalid)
	fmt.Fprintf(w, "  notifier: delivered=%d failures=%d retries=%d short-circuits=%d breaker=%s opens=%d\n",
		rs.Delivered, rs.Failures, rs.Retries, rs.ShortCircuits, rs.Breaker, rs.BreakerOpens)
	for _, code := range []int{200, 302, 401, 403, 404} {
		if n := statuses[code]; n > 0 {
			fmt.Fprintf(w, "  status %d: %d\n", code, n)
		}
	}
	for code, n := range statuses {
		if code >= 500 {
			fmt.Fprintf(w, "  status %d: %d  <-- CRASHED\n", code, n)
		}
	}

	if crashed > 0 {
		return fmt.Errorf("fault drill: %d request(s) crashed (5xx) under injection", crashed)
	}
	if got := sum(statuses); got != len(mix) {
		return fmt.Errorf("fault drill: %d of %d requests unanswered", len(mix)-got, len(mix))
	}
	// A hung evaluator must be cut at the deadline: with every injected
	// hang supervised, no single request may stall for more than the
	// per-request condition budget (a generous multiple of the
	// deadline covers multi-condition entries plus scheduling noise).
	if budget := 20 * o.Timeout; es.Hangs > 0 && slowest > budget {
		return fmt.Errorf("fault drill: slowest request %v exceeded the deadline budget %v", slowest, budget)
	}
	if es.Hangs > 0 && sup.Timeouts == 0 {
		return fmt.Errorf("fault drill: %d hangs injected but no supervised timeout recorded", es.Hangs)
	}
	if es.Panics > 0 && sup.Panics == 0 {
		return fmt.Errorf("fault drill: %d panics injected but none recovered", es.Panics)
	}

	// Disk-fault contract: whatever the injected short writes and fsync
	// errors left on disk, a fresh store must recover the valid journal
	// prefix without erroring (torn tails are truncated, not fatal).
	if o.DiskSpec.Active() {
		st.Close() // the deferred Close is an idempotent no-op
		check, err := statestore.Open(o.StateDir, statestore.Options{})
		if err != nil {
			return fmt.Errorf("fault drill: torn state store failed to recover: %w", err)
		}
		rec := check.Recovery()
		check.Close()
		fmt.Fprintf(w, "  state recovery: snapshot=%v replayed=%d dup-skipped=%d dropped=%dB\n",
			rec.SnapshotLoaded, rec.Replayed, rec.SkippedDuplicates, rec.DroppedBytes)
	}
	return nil
}

func sum(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
