package gaahttp

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"time"

	"gaaapi/internal/cluster"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/metrics"
	"gaaapi/internal/netblock"
	"gaaapi/internal/notify"
	"gaaapi/internal/statestore"
)

// Metric names registered by RegisterComponentMetrics and
// InstrumentHandler. Like the gaa.Metric* names they are an
// observability contract (docs/OBSERVABILITY.md): renaming one breaks
// dashboards and the golden fixtures.
const (
	MetricThreatLevel       = "gaa_threat_level"
	MetricThreatTransitions = "gaa_threat_transitions_total"
	MetricIDSReports        = "gaa_ids_reports_total"
	MetricActiveBlocks      = "gaa_netblock_active_blocks"

	MetricNotifyDelivered     = "gaa_notify_delivered_total"
	MetricNotifyFailures      = "gaa_notify_failures_total"
	MetricNotifyAttempts      = "gaa_notify_attempts_total"
	MetricNotifyRetries       = "gaa_notify_retries_total"
	MetricNotifyShortCircuits = "gaa_notify_short_circuits_total"
	MetricNotifyBreakerOpens  = "gaa_notify_breaker_opens_total"
	MetricNotifyBreakerState  = "gaa_notify_breaker_state"

	MetricStateAppends        = "gaa_state_appends_total"
	MetricStateAppendErrors   = "gaa_state_append_errors_total"
	MetricStateSnapshots      = "gaa_state_snapshots_total"
	MetricStateSnapshotErrors = "gaa_state_snapshot_errors_total"
	MetricStateSyncs          = "gaa_state_syncs_total"
	MetricStateSyncErrors     = "gaa_state_sync_errors_total"
	MetricStateLastSeq        = "gaa_state_last_seq"
	MetricStateDroppedBytes   = "gaa_state_recovery_dropped_bytes"
	MetricStateJournalErrors  = "gaa_state_journal_errors_total"
	MetricStateRestoreDropped = "gaa_state_restore_dropped_records"

	MetricClusterPushes           = "gaa_cluster_pushes_total"
	MetricClusterRecordsSent      = "gaa_cluster_records_sent_total"
	MetricClusterPushFailures     = "gaa_cluster_push_failures_total"
	MetricClusterRecordsApplied   = "gaa_cluster_records_applied_total"
	MetricClusterRecordsDuplicate = "gaa_cluster_records_duplicate_total"
	MetricClusterCorruptFrames    = "gaa_cluster_corrupt_frames_total"
	MetricClusterApplyErrors      = "gaa_cluster_apply_errors_total"
	MetricClusterSnapshotsSent    = "gaa_cluster_snapshots_sent_total"
	MetricClusterSnapshotsApplied = "gaa_cluster_snapshots_applied_total"
	MetricClusterPeers            = "gaa_cluster_peers"
	MetricClusterPeersDegraded    = "gaa_cluster_peers_degraded"
	MetricClusterConvergenceLag   = "gaa_cluster_convergence_lag_records"
	MetricClusterLogSeq           = "gaa_cluster_log_seq"

	MetricReloadAttempts      = "gaa_reload_attempts_total"
	MetricReloadApplied       = "gaa_reload_applied_total"
	MetricReloadRejected      = "gaa_reload_rejected_total"
	MetricReloadAutoRollbacks = "gaa_reload_auto_rollbacks_total"
	MetricReloadGeneration    = "gaa_reload_generation"
	MetricReloadProbation     = "gaa_reload_probation"

	MetricHTTPRequests = "gaa_http_requests_total"
	MetricHTTPDuration = "gaa_http_request_duration_seconds"

	MetricAdaptiveSignal       = "gaa_adaptive_signal"
	MetricAdaptiveLevel        = "gaa_adaptive_level"
	MetricAdaptiveSources      = "gaa_adaptive_sources"
	MetricAdaptiveResources    = "gaa_adaptive_resources"
	MetricAdaptiveSamples      = "gaa_adaptive_samples_total"
	MetricAdaptiveDropped      = "gaa_adaptive_samples_dropped_total"
	MetricAdaptiveSourceBlocks = "gaa_adaptive_source_blocks_total"
	MetricAdaptiveRaises       = "gaa_adaptive_raises_total"
	MetricAdaptiveLowers       = "gaa_adaptive_lowers_total"
)

// Components names the stack pieces whose existing counters are scraped
// at collect time. Every field is optional: nil components register
// nothing, so a deployment exposes exactly what it runs.
type Components struct {
	Threat   *ids.Manager
	Bus      *ids.Bus
	Blocks   *netblock.Set
	Reliable *notify.Reliable
	Store    *statestore.Store
	Persist  *statestore.Adaptive
	Reloader *Reloader
	Cluster  *cluster.Node
	Scorer   *adaptive.Engine
}

// RegisterComponentMetrics wires the adaptive substrate into reg using
// collect-time functions over each component's own atomics — the
// components keep sole ownership of their counters, so there is no
// double accounting and no hot-path change.
func RegisterComponentMetrics(reg *metrics.Registry, c Components) {
	if t := c.Threat; t != nil {
		reg.GaugeFunc(MetricThreatLevel,
			"Current IDS system threat level (1=low, 2=medium, 3=high).",
			func() float64 { return float64(t.Level()) })
		reg.CounterFunc(MetricThreatTransitions,
			"Threat-level changes since process start.", t.Transitions)
	}
	if b := c.Bus; b != nil {
		reg.CounterFunc(MetricIDSReports,
			"GAA-to-IDS reports published on the event bus.", b.Published)
	}
	if s := c.Blocks; s != nil {
		reg.GaugeFunc(MetricActiveBlocks,
			"Live firewall block entries (expired blocks excluded).",
			func() float64 { return float64(s.Len()) })
	}
	if r := c.Reliable; r != nil {
		for _, f := range []struct {
			name, help string
			fn         func(notify.ReliableStats) uint64
		}{
			{MetricNotifyDelivered, "Notifications that reached the transport and succeeded.",
				func(s notify.ReliableStats) uint64 { return s.Delivered }},
			{MetricNotifyFailures, "Notifications that exhausted their retries.",
				func(s notify.ReliableStats) uint64 { return s.Failures }},
			{MetricNotifyAttempts, "Individual notification delivery attempts.",
				func(s notify.ReliableStats) uint64 { return s.Attempts }},
			{MetricNotifyRetries, "Delivery attempts beyond each call's first.",
				func(s notify.ReliableStats) uint64 { return s.Retries }},
			{MetricNotifyShortCircuits, "Notifications rejected while the breaker was open.",
				func(s notify.ReliableStats) uint64 { return s.ShortCircuits }},
			{MetricNotifyBreakerOpens, "Times the notification circuit breaker tripped open.",
				func(s notify.ReliableStats) uint64 { return s.BreakerOpens }},
		} {
			f := f
			reg.CounterFunc(f.name, f.help, func() uint64 { return f.fn(r.Stats()) })
		}
		reg.GaugeFunc(MetricNotifyBreakerState,
			"Notification circuit-breaker state (0=closed, 1=open, 2=half-open).",
			func() float64 { return float64(r.BreakerState()) })
	}
	if st := c.Store; st != nil {
		for _, f := range []struct {
			name, help string
			fn         func(statestore.Stats) uint64
		}{
			{MetricStateAppends, "Adaptive-state WAL records written.",
				func(s statestore.Stats) uint64 { return s.Appends }},
			{MetricStateAppendErrors, "Adaptive-state WAL appends that failed (disk faults).",
				func(s statestore.Stats) uint64 { return s.AppendErrors }},
			{MetricStateSnapshots, "WAL compactions taken.",
				func(s statestore.Stats) uint64 { return s.Snapshots }},
			{MetricStateSnapshotErrors, "WAL compactions that failed.",
				func(s statestore.Stats) uint64 { return s.SnapshotErrors }},
			{MetricStateSyncs, "Explicit WAL fsyncs.",
				func(s statestore.Stats) uint64 { return s.Syncs }},
			{MetricStateSyncErrors, "WAL fsyncs that failed.",
				func(s statestore.Stats) uint64 { return s.SyncErrors }},
		} {
			f := f
			reg.CounterFunc(f.name, f.help, func() uint64 { return f.fn(st.Stats()) })
		}
		reg.GaugeFunc(MetricStateLastSeq,
			"Highest WAL record sequence number issued.",
			func() float64 { return float64(st.Stats().LastSeq) })
		reg.CounterFunc(MetricStateDroppedBytes,
			"Bytes of corrupt WAL tail dropped during the last recovery.",
			func() uint64 { return uint64(st.Recovery().DroppedBytes) })
	}
	if p := c.Persist; p != nil {
		reg.CounterFunc(MetricStateJournalErrors,
			"Adaptive-state journal appends lost to marshal or disk faults (enforcement continues from memory).",
			p.JournalErrors)
		reg.GaugeFunc(MetricStateRestoreDropped,
			"Persisted records dropped at the last restore (blocks already past their deadline).",
			func() float64 { return float64(p.Restored().ExpiredBlocks) })
	}
	if cl := c.Cluster; cl != nil {
		for _, f := range []struct {
			name, help string
			fn         func(cluster.Stats) uint64
		}{
			{MetricClusterPushes, "Replication push round-trips attempted.",
				func(s cluster.Stats) uint64 { return s.Pushes }},
			{MetricClusterRecordsSent, "Adaptive-state records acknowledged by peers.",
				func(s cluster.Stats) uint64 { return s.RecordsSent }},
			{MetricClusterPushFailures, "Replication pushes that failed (peer down, slow, or rejecting).",
				func(s cluster.Stats) uint64 { return s.PushFailures }},
			{MetricClusterRecordsApplied, "Remote records merged into local state.",
				func(s cluster.Stats) uint64 { return s.RecordsApplied }},
			{MetricClusterRecordsDuplicate, "Remote records dropped as duplicates or no-op merges.",
				func(s cluster.Stats) uint64 { return s.RecordsDuplicate }},
			{MetricClusterCorruptFrames, "Replication pushes carrying CRC-invalid or truncated frames.",
				func(s cluster.Stats) uint64 { return s.CorruptFrames }},
			{MetricClusterApplyErrors, "Remote records with valid framing but undecodable payloads.",
				func(s cluster.Stats) uint64 { return s.ApplyErrors }},
			{MetricClusterSnapshotsSent, "Full-state snapshots shipped to peers behind the log horizon.",
				func(s cluster.Stats) uint64 { return s.SnapshotsSent }},
			{MetricClusterSnapshotsApplied, "Full-state snapshots merged from peers.",
				func(s cluster.Stats) uint64 { return s.SnapshotsApplied }},
		} {
			f := f
			reg.CounterFunc(f.name, f.help, func() uint64 { return f.fn(cl.Stats()) })
		}
		reg.GaugeFunc(MetricClusterPeers,
			"Configured replication peers.",
			func() float64 { return float64(len(cl.Stats().Peers)) })
		reg.GaugeFunc(MetricClusterPeersDegraded,
			"Peers without a successful push within the degraded window.",
			func() float64 { return float64(cl.Stats().DegradedPeers) })
		reg.GaugeFunc(MetricClusterConvergenceLag,
			"Largest per-peer count of local records not yet acknowledged.",
			func() float64 { return float64(cl.Stats().MaxLag) })
		reg.GaugeFunc(MetricClusterLogSeq,
			"Replication log head sequence (locally originated mutations).",
			func() float64 { return float64(cl.Stats().Seq) })
	}
	if sc := c.Scorer; sc != nil {
		reg.GaugeFunc(MetricAdaptiveSignal,
			"Smoothed global anomaly signal driving the adaptive threat level.",
			func() float64 { return sc.Stats().Signal })
		reg.GaugeFunc(MetricAdaptiveLevel,
			"Adaptive engine's own hysteresis level (1=low, 2=medium, 3=high).",
			func() float64 { return float64(sc.Stats().Level) })
		reg.GaugeFunc(MetricAdaptiveSources,
			"Live per-source behaviour profiles.",
			func() float64 { return float64(sc.Stats().Sources) })
		reg.GaugeFunc(MetricAdaptiveResources,
			"Live per-resource request-shape profiles.",
			func() float64 { return float64(sc.Stats().Resources) })
		for _, f := range []struct {
			name, help string
			fn         func(adaptive.Stats) uint64
		}{
			{MetricAdaptiveSamples, "Authorization decisions scored by the adaptive engine.",
				func(s adaptive.Stats) uint64 { return s.Samples }},
			{MetricAdaptiveDropped, "Samples dropped because the async queue was full.",
				func(s adaptive.Stats) uint64 { return s.Dropped }},
			{MetricAdaptiveSourceBlocks, "Sources blocked on their per-source anomaly score.",
				func(s adaptive.Stats) uint64 { return s.SourceBlocks }},
			{MetricAdaptiveRaises, "Adaptive threat-level raises.",
				func(s adaptive.Stats) uint64 { return s.Raises }},
			{MetricAdaptiveLowers, "Adaptive threat-level lowers (dwell-gated).",
				func(s adaptive.Stats) uint64 { return s.Lowers }},
		} {
			f := f
			reg.CounterFunc(f.name, f.help, func() uint64 { return f.fn(sc.Stats()) })
		}
	}
	if rl := c.Reloader; rl != nil {
		for _, f := range []struct {
			name, help string
			fn         func(ReloadStats) uint64
		}{
			{MetricReloadAttempts, "Policy reload attempts.",
				func(s ReloadStats) uint64 { return s.Attempts }},
			{MetricReloadApplied, "Policy reloads validated and swapped in.",
				func(s ReloadStats) uint64 { return s.Applied }},
			{MetricReloadRejected, "Policy reload candidates rejected by validation.",
				func(s ReloadStats) uint64 { return s.Rejected }},
			{MetricReloadAutoRollbacks, "Reloads rolled back by the post-swap health probe.",
				func(s ReloadStats) uint64 { return s.AutoRollbacks }},
		} {
			f := f
			reg.CounterFunc(f.name, f.help, func() uint64 { return f.fn(rl.Stats()) })
		}
		reg.GaugeFunc(MetricReloadGeneration,
			"Live policy swap generation.",
			func() float64 { return float64(rl.Stats().Generation) })
		reg.GaugeFunc(MetricReloadProbation,
			"Whether a post-swap health probe is armed (0/1).",
			func() float64 {
				if rl.Stats().Probation {
					return 1
				}
				return 0
			})
	}
}

// MetricsHandler serves reg in Prometheus text exposition format 0.0.4.
func MetricsHandler(reg *metrics.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})
}

// statusWriter captures the response code for the request counter. It
// forwards the optional ResponseWriter interfaces the net/http server
// may rely on: Flusher, Hijacker (websocket/CONNECT upgrades) and
// io.ReaderFrom (sendfile on static responses).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if hj, ok := w.ResponseWriter.(http.Hijacker); ok {
		return hj.Hijack()
	}
	return nil, nil, http.ErrNotSupported
}

// ReadFrom delegates to io.Copy, which uses the underlying writer's
// ReaderFrom when it has one and plain buffered copying otherwise.
func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	return io.Copy(w.ResponseWriter, src)
}

// InstrumentHandler wraps next with request counting by status-code
// class and a request-duration histogram. The per-class counters are
// resolved once at wrap time, so the per-request cost is one clock pair
// plus two striped atomic adds.
func InstrumentHandler(reg *metrics.Registry, next http.Handler) http.Handler {
	dur := reg.Histogram(MetricHTTPDuration,
		"End-to-end HTTP request duration including the GAA guard phases.", nil)
	var classes [6]*metrics.Counter
	for i, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		classes[i+1] = reg.Counter(MetricHTTPRequests,
			"HTTP requests served by status-code class.",
			metrics.L("code_class", class))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		dur.ObserveDuration(time.Since(start))
		idx := sw.code / 100
		if idx < 1 || idx > 5 {
			idx = 5
		}
		classes[idx].Inc()
	})
}
