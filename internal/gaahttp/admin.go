package gaahttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"

	"gaaapi/internal/cluster"
)

// Handler returns the deployment's HTTP entry point: the admin
// endpoints — /gaa/status, /gaa/reload, /gaa/healthz, the replicate
// endpoint in cluster mode, /gaa/metrics with Metrics, /debug/pprof/
// with Pprof — dispatched ahead of the guarded Server, and the whole
// instrumented with request metrics when Metrics is on.
//
// Dispatch avoids http.ServeMux: the mux canonicalizes paths (e.g.
// collapsing "//") with a 301 *before* the access-control phase, which
// would hide slash-flood probes from the GAA guard. Apache hands the
// raw request line to its modules; so do we.
func (s *Stack) Handler() http.Handler {
	s.handlerOnce.Do(func() {
		var replicate, scrape http.Handler
		if s.Cluster != nil {
			replicate = s.Cluster.Handler()
		}
		if s.Metrics != nil {
			scrape = MetricsHandler(s.Metrics)
		}
		s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch path := r.URL.Path; {
			case path == "/gaa/status":
				s.writeStatus(w)
			case path == "/gaa/reload":
				s.serveReload(w, r)
			case path == HealthzPath:
				s.serveHealthz(w, r)
			case replicate != nil && path == cluster.ReplicatePath:
				replicate.ServeHTTP(w, r)
			case scrape != nil && path == "/gaa/metrics":
				scrape.ServeHTTP(w, r)
			case s.pprof && strings.HasPrefix(path, "/debug/pprof"):
				servePprof(w, r)
			default:
				s.Server.ServeHTTP(w, r)
			}
		})
		if s.Metrics != nil {
			s.handler = InstrumentHandler(s.Metrics, s.handler)
		}
	})
	return s.handler
}

// serveReload runs a validated policy reload on POST. A rejected
// candidate answers 422: the old policy set keeps serving and the body
// says why.
func (s *Stack) serveReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	res := s.Reloader.Reload()
	w.Header().Set("Content-Type", "application/json")
	if !res.OK {
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	json.NewEncoder(w).Encode(res)
}

// servePprof dispatches /debug/pprof requests to the pprof handlers
// without net/http/pprof's DefaultServeMux registration.
func servePprof(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/debug/pprof/cmdline":
		pprof.Cmdline(w, r)
	case "/debug/pprof/profile":
		pprof.Profile(w, r)
	case "/debug/pprof/symbol":
		pprof.Symbol(w, r)
	case "/debug/pprof/trace":
		pprof.Trace(w, r)
	default:
		// Index also serves the named profiles (heap, goroutine, ...).
		pprof.Index(w, r)
	}
}

// writeStatus is the /gaa/status report: one line per component, the
// optional ones only when wired.
func (s *Stack) writeStatus(w io.Writer) {
	fmt.Fprintf(w, "threat level: %s\n", s.Threat.Level())
	fmt.Fprintf(w, "BadGuys: %s\n", strings.Join(s.Groups.Members("BadGuys"), " "))
	fmt.Fprintf(w, "blocked: %s\n", strings.Join(s.Blocks.List(), " "))
	fmt.Fprintf(w, "notifications: %d\n", s.Mailbox.Count())
	fmt.Fprintf(w, "bus reports: %d\n", s.Bus.Published())
	sup := s.API.SupervisionStats()
	fmt.Fprintf(w, "supervision: timeouts=%d panics=%d errors=%d invalid=%d\n",
		sup.Timeouts, sup.Panics, sup.Errors, sup.Invalid)
	if s.Reliable != nil {
		ns := s.Reliable.Stats()
		fmt.Fprintf(w, "notifier: delivered=%d failures=%d retries=%d short-circuits=%d breaker=%s opens=%d\n",
			ns.Delivered, ns.Failures, ns.Retries, ns.ShortCircuits, ns.Breaker, ns.BreakerOpens)
	}
	if s.Scorer != nil {
		as := s.Scorer.Stats()
		fmt.Fprintf(w, "adaptive: signal=%.3f level=%s sources=%d resources=%d samples=%d dropped=%d source-blocks=%d raises=%d lowers=%d\n",
			as.Signal, as.Level, as.Sources, as.Resources,
			as.Samples, as.Dropped, as.SourceBlocks, as.Raises, as.Lowers)
	}
	rls := s.Reloader.Stats()
	fmt.Fprintf(w, "reload: generation=%d attempts=%d applied=%d rejected=%d auto-rollbacks=%d probation=%v\n",
		rls.Generation, rls.Attempts, rls.Applied, rls.Rejected, rls.AutoRollbacks, rls.Probation)
	if rls.LastError != "" {
		fmt.Fprintf(w, "reload last error: %s\n", rls.LastError)
	}
	for _, d := range rls.LastDiagnostics {
		fmt.Fprintf(w, "reload diag: %s\n", d)
	}
	if s.Store != nil {
		ss := s.Store.Stats()
		fmt.Fprintf(w, "state store: appends=%d append-errors=%d snapshots=%d snapshot-errors=%d syncs=%d sync-errors=%d last-seq=%d journal-errors=%d\n",
			ss.Appends, ss.AppendErrors, ss.Snapshots, ss.SnapshotErrors,
			ss.Syncs, ss.SyncErrors, ss.LastSeq, s.Persist.JournalErrors())
		rec := s.Store.Recovery()
		fmt.Fprintf(w, "state recovery: snapshot=%v(seq=%d quarantined=%v) replayed=%d dup-skipped=%d dropped=%dB",
			rec.SnapshotLoaded, rec.SnapshotSeq, rec.SnapshotQuarantined,
			rec.Replayed, rec.SkippedDuplicates, rec.DroppedBytes)
		if rec.DroppedReason != "" {
			fmt.Fprintf(w, " reason=%q", rec.DroppedReason)
		}
		fmt.Fprintln(w)
		rsum := s.Persist.Restored()
		fmt.Fprintf(w, "state restored: blocks=%d expired-blocks=%d threat=%q counter-events=%d group-members=%d\n",
			rsum.Blocks, rsum.ExpiredBlocks, rsum.ThreatLevel, rsum.CounterEvents, rsum.GroupMembers)
	}
	if s.Cluster != nil {
		cs := s.Cluster.Stats()
		fmt.Fprintf(w, "cluster: node=%s epoch=%d seq=%d log=%d horizon=%d max-lag=%d degraded-peers=%d\n",
			cs.NodeID, cs.Epoch, cs.Seq, cs.LogLen, cs.Horizon, cs.MaxLag, cs.DegradedPeers)
		fmt.Fprintf(w, "cluster io: pushes=%d failures=%d sent=%d applied=%d dup=%d corrupt=%d apply-errors=%d self-drops=%d stale-drops=%d snapshots-sent=%d snapshots-applied=%d\n",
			cs.Pushes, cs.PushFailures, cs.RecordsSent, cs.RecordsApplied,
			cs.RecordsDuplicate, cs.CorruptFrames, cs.ApplyErrors,
			cs.SelfDrops, cs.StaleEpochDrops, cs.SnapshotsSent, cs.SnapshotsApplied)
		for _, p := range cs.Peers {
			fmt.Fprintf(w, "cluster peer: %s acked=%d lag=%d breaker=%s degraded=%v",
				p.URL, p.Acked, p.Lag, p.Breaker, p.Degraded)
			if p.LastError != "" {
				fmt.Fprintf(w, " last-error=%q", p.LastError)
			}
			fmt.Fprintln(w)
		}
		for _, or := range cs.Origins {
			fmt.Fprintf(w, "cluster origin: %s epoch=%d applied=%d\n", or.Node, or.Epoch, or.Applied)
		}
	}
	recs := s.Audit.Records()
	if len(recs) > 10 {
		recs = recs[len(recs)-10:]
	}
	for _, r := range recs {
		fmt.Fprintf(w, "audit: %s %s %s %s\n", r.Kind, r.Object, r.Decision, r.ClientIP)
	}
}
