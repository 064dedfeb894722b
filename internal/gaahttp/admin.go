package gaahttp

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	rpprof "runtime/pprof"
	"strings"

	"gaaapi/internal/cluster"
	"gaaapi/internal/gaa"
)

// adminEACL alone decides the objects the server mounts (the admin
// endpoints): loopback sources are granted, everyone else is denied
// (DESIGN.md "Admin plane").
//
//go:embed admin.eacl
var adminEACL string

// adminSources is the guard's one policy source for a mounted object.
var adminSources = func() []gaa.PolicySource {
	src := gaa.NewMemorySource()
	if err := src.AddPolicy("*", adminEACL); err != nil {
		panic("gaahttp: admin.eacl: " + err.Error())
	}
	return []gaa.PolicySource{src}
}()

// Handler returns the deployment's HTTP entry point: the Server, which
// serves the admin endpoints as objects (adminMounts), instrumented with
// request metrics when Metrics is on.
func (s *Stack) Handler() http.Handler {
	s.handlerOnce.Do(func() {
		s.handler = s.Server
		if s.Metrics != nil {
			s.handler = InstrumentHandler(s.Metrics, s.Server)
		}
	})
	return s.handler
}

// adminMounts are the admin endpoints the Server mounts, each by its
// exact object; the replicate endpoint only in cluster mode,
// /gaa/metrics only with Metrics, and with pprof the index, each runtime
// profile by name (heap, allocs, goroutine, ...) and the four others.
func (s *Stack) adminMounts(withPprof bool) map[string]http.Handler {
	mounts := map[string]http.Handler{
		"/gaa/status": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { s.writeStatus(w) }),
		"/gaa/reload": http.HandlerFunc(s.serveReload),
		HealthzPath:   http.HandlerFunc(s.serveHealthz),
	}
	if s.Cluster != nil {
		mounts[cluster.ReplicatePath] = s.Cluster.Handler()
	}
	if s.Metrics != nil {
		mounts["/gaa/metrics"] = MetricsHandler(s.Metrics)
	}
	if withPprof {
		// The object "/debug/pprof/" names (httpd's objectPath).
		mounts["/debug/pprof/index.html"] = http.HandlerFunc(pprof.Index)
		for _, p := range rpprof.Profiles() {
			mounts["/debug/pprof/"+p.Name()] = pprof.Handler(p.Name())
		}
		mounts["/debug/pprof/cmdline"] = http.HandlerFunc(pprof.Cmdline)
		mounts["/debug/pprof/profile"] = http.HandlerFunc(pprof.Profile)
		mounts["/debug/pprof/symbol"] = http.HandlerFunc(pprof.Symbol)
		mounts["/debug/pprof/trace"] = http.HandlerFunc(pprof.Trace)
	}
	return mounts
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
		fmt.Fprintf(w, "adaptive: signal=%.3f sources=%d resources=%d samples=%d source-blocks=%d raises=%d\n",
			as.Signal, as.Sources, as.Resources, as.Samples, as.SourceBlocks, as.Raises)
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
