package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"path/filepath"

	"gaaapi/internal/gaa"
	"gaaapi/internal/metrics"
	"gaaapi/internal/netblock"
	"gaaapi/internal/statestore"
)

// internals are the public stats accessors of a deployment the harness
// holds in-process.
type internals struct {
	handler http.Handler
	api     *gaa.API
	blocks  *netblock.Set
	store   *statestore.Store // nil without a state directory
	metrics *metrics.Registry
	close   func()
}

func (d *inproc) internals() internals {
	st := d.stack
	return internals{handler: st.Server, api: st.API, blocks: st.Blocks, store: st.Store, metrics: st.Metrics, close: d.close}
}

func (p *parts) internals() internals {
	return internals{handler: p.server, api: p.api, blocks: p.blocks, store: p.store, metrics: p.metrics, close: p.close}
}

// traceKeepRequests is how many requests have their spans written to
// the trace file.
const traceKeepRequests = 2000

// reconcile is ROADMAP item 1's rule applied to one workload: the
// layers' figures must add up to the latency a request shows with
// tracing off, or the harness is measuring the wrong thing. Every
// figure is the median over the run's slices.
type reconcile struct {
	UntracedMeanNs   float64 `json:"untraced_mean_ns"`
	TracedMeanNs     float64 `json:"traced_mean_ns"`
	TraceOverheadPct float64 `json:"trace_overhead_pct"`
	// SeamSelfNs is the self time per request of every decorated seam
	// except the request root and the document root (both are inside
	// the floor), already net of SpanCostNs: the seams' part of the
	// measured difference between the traced and the untraced run.
	SeamSelfNs float64 `json:"seam_self_ns"`
	SpanCostNs float64 `json:"span_cost_ns"`
	// FloorNs is httpd.serve_unguarded_ns on this stream (plus what
	// OSRoot costs over MapRoot for the file-backed deployment).
	FloorNs float64 `json:"floor_ns"`
	// ServerExtraNs is what the guarded server does outside any seam
	// and outside the floor, the CLF line and the firewall lookup: a
	// guard-less server with a block set and a discarding log, minus
	// the floor.
	ServerExtraNs float64 `json:"server_extra_ns"`
	// MonitoredShare of the requests ran under execctl's monitor, and
	// each of those cost the server MonitoredExtraNs more of its own
	// time than the others. That figure is read off the trace, not
	// timed apart: execctl.run_monitored_ns in a tight loop does not
	// pay the scheduler wake-ups the request path pays (README).
	MonitoredShare   float64 `json:"monitored_share"`
	MonitoredExtraNs float64 `json:"monitored_extra_ns"`
	// RootSelfNs is the server's own share read off the trace (the root
	// span's self time on unmonitored requests, tracer included): floor
	// plus extra, measured in context. Informative only.
	RootSelfNs float64 `json:"root_self_ns"`
	ModelNs    float64 `json:"model_ns"`
	GapPct     float64 `json:"gap_pct"`
	Required   bool    `json:"required"`
	OK         bool    `json:"ok"`
}

// layersResult is the per-layer half of one workload's report.
type layersResult struct {
	Workload  string     `json:"workload"`
	Requests  int        `json:"requests"`
	Attempted int        `json:"attempted"`
	Correct   int        `json:"correct"`
	Failed    int        `json:"failed"`
	Failure   string     `json:"first_failure,omitempty"`
	TraceFile string     `json:"trace_file"`
	Reconcile *reconcile `json:"reconcile"`
	Layers    []layerRow `json:"trace_layers"`
	Metrics   layerSet   `json:"metrics"`
}

// deployInternals builds w's untraced deployment in-process: the
// composition root's own. gaa-httpd's file-backed shape has no
// in-process composition root, so there the undecorated rebuild stands
// in.
func (e *env) deployInternals(w workload) (internals, error) {
	if w.tcp {
		p, err := buildParts(w, e.scratch, true, nil)
		if err != nil {
			return internals{}, err
		}
		return p.internals(), nil
	}
	d, err := w.deployInproc(e.scratch)
	if err != nil {
		return internals{}, err
	}
	return d.internals(), nil
}

// side is one of the deployments the layer run drives in turn.
type side struct {
	c        client
	g        *generator
	statuses []uint16
}

func (s *side) run(n int) loopResult {
	return runClosedLoop([]client{s.c}, []*generator{s.g}, n, 1, runLimit, &s.statuses)
}

// traceSlices is how many times the layer run alternates between the
// untraced and the traced deployment. Figures are medians over the
// slices: on a shared box the noise that matters lasts longer than a
// slice, so it hits both sides of a pair alike and a burst spoils one
// slice, not the run.
const traceSlices = 10

// measureLayers produces every per-layer metric for w: the direct
// timed calls, the counts read from the public stats accessors after
// an untraced one-worker run, the traced run of the same stream with
// its layer self times and reconciliation, and (with the other figures
// no stream decides, once per process) the open-loop pass over loopback
// TCP.
func (e *env) measureLayers(w workload, seed int64) (*layersResult, error) {
	fixed, err := e.fixedLayerCalls(seed)
	if err != nil {
		return nil, fmt.Errorf("layer calls: %w", err)
	}
	m := maps.Clone(fixed)
	if err := e.streamLayerCalls(w, seed, m); err != nil {
		return nil, fmt.Errorf("%s: layer calls: %w", w.name, err)
	}
	per := max(1, e.scaled(w.traced)/traceSlices)
	n, warm := per*traceSlices, per
	res := &layersResult{Workload: w.name, Requests: n, Metrics: m}

	// Untraced: the composition root's own deployment.
	in, err := e.deployInternals(w)
	if err != nil {
		return nil, err
	}
	defer in.close()
	// Traced: the same deployment rebuilt with a span on every seam.
	tr := newTracer(traceKeepRequests)
	p, err := buildParts(w, e.scratch, w.tcp, tr)
	if err != nil {
		return nil, err
	}
	defer p.close()

	// Probed: a third copy of the untraced deployment, whose requests
	// are each followed by the probe's two guard-less servers.
	pin, err := e.deployInternals(w)
	if err != nil {
		return nil, err
	}
	defer pin.close()
	probe := e.newServerProbe(w, pin.blocks)

	untraced := &side{c: newInprocClient(in.handler), g: newGenerator(w.stream, seed, 0, warm+n)}
	traced := &side{c: tracedClient{inner: newInprocClient(p.server), tr: tr}, g: newGenerator(w.stream, seed, 0, warm+n)}
	probed := &side{c: probedClient{newInprocClient(pin.handler), probe}, g: newGenerator(w.stream, seed, 0, warm+n)}
	for _, s := range []*side{untraced, traced, probed} {
		if r := s.run(warm); r.failed() > 0 {
			return nil, fmt.Errorf("%s: warm-up: %s", w.name, r.failure)
		}
	}
	tr.reset()
	probe.take()
	cache0, runs0 := in.api.CacheStats(), in.api.CompileStats().Runs

	inner, outer := spanCost()
	var slices []totals
	var recs []reconcile
	var floors []float64
	for k := 0; k < traceSlices; k++ {
		if r := probed.run(per); r.failed() > 0 {
			return nil, fmt.Errorf("%s: probed run: %s", w.name, r.failure)
		}
		floorNs, ownNs := probe.take()
		floors = append(floors, floorNs)
		u := untraced.run(per)
		// Each slice runs on a goroutine of its own; the first traced
		// request claims the tracer for it.
		tr.owner.Store(0)
		before := tr.totals
		t := traced.run(per)
		slice := tr.totals.since(before)
		slices = append(slices, slice)
		recs = append(recs, reconcileSlice(w, m, floorNs, ownNs, slice, u.meanLatencyNs(), t.meanLatencyNs(), inner, outer))
		res.Attempted += t.planned
		res.Correct += t.correct
		if res.Failure == "" {
			res.Failure = t.failure
		}
	}
	res.Failed = res.Attempted - res.Correct
	if len(traced.statuses) != len(untraced.statuses) {
		return nil, fmt.Errorf("%s: traced run answered %d requests, untraced %d", w.name, len(traced.statuses), len(untraced.statuses))
	}
	for i, want := range untraced.statuses {
		if traced.statuses[i] != want {
			return nil, fmt.Errorf("%s: traced run diverges at request %d: status %d, untraced %d", w.name, i, traced.statuses[i], want)
		}
	}

	// The floor as timed in context replaces the tight-loop reading.
	m["httpd.serve_unguarded_ns"] = metric{median(floors), "ns"}

	// Counts, from the untraced deployment's public accessors.
	cache1, runs1, sup := in.api.CacheStats(), in.api.CompileStats().Runs, in.api.SupervisionStats()
	lookups := float64(cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses)
	// Requests the firewall answers never reach the decision engine.
	classes := classCounts(w, seed, warm, n)
	decisions := classes[classLegit] + classes[classAttack]
	m["gaa.policy_cache_hit_ratio"] = metric{ratio(float64(cache1.Hits-cache0.Hits), lookups), "ratio"}
	m["gaa.compiled_share"] = metric{ratio(float64(runs1-runs0), float64(decisions)), "ratio"}
	m["gaa.supervision_faults"] = metric{float64(sup.Panics + sup.Timeouts + sup.Errors + sup.Invalid), "count"}
	m["netblock.entries"] = metric{float64(in.blocks.Len()), "count"}
	var appends, snapshots float64
	if in.store != nil {
		st := in.store.Stats()
		appends, snapshots = float64(st.Appends), float64(st.Snapshots)
	}
	m["statestore.appends_per_req"] = metric{appends / float64(warm+n), "count"}
	m["statestore.snapshots"] = metric{snapshots, "count"}
	scrape, err := timeSlow(5, func() error { return in.metrics.WritePrometheus(io.Discard) })
	if err != nil {
		return nil, err
	}
	m["metrics.scrape_ms"] = metric{float64(scrape) / 1e6, "ms"}

	rc := medianReconcile(recs)
	// A scaled-down run is too short for the rule to mean anything.
	rc.Required = w.reconciles && e.scale >= 1
	rc.OK = math.Abs(rc.GapPct) <= 10
	res.Reconcile, res.Layers = rc, tr.layerTable(slices)
	m["trace_overhead_pct"] = metric{rc.TraceOverheadPct, "%"}
	m["trace.reconcile_gap_pct"] = metric{rc.GapPct, "%"}
	m["trace.untraced_mean_ns"] = metric{rc.UntracedMeanNs, "ns"}
	m["trace.execctl_monitored_extra_ns"] = metric{rc.MonitoredExtraNs, "ns"}
	var spans int64
	for i, row := range res.Layers {
		m["trace.self_ns."+row.Name] = metric{row.SelfNsPerReq, "ns"}
		spans += tr.count[i]
	}
	m["trace.spans_per_req"] = metric{float64(spans) / float64(n), "count"}
	m["failed_share"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
	res.TraceFile = filepath.Join(e.outDir, "trace-"+w.name+".json")
	if err := tr.writeFile(res.TraceFile, w, seed, rc, res.Layers); err != nil {
		return nil, err
	}
	return res, nil
}

// reconcileSlice adds the layers up for one slice and compares the sum
// with the untraced mean latency of the slice run just before it.
//
// The tracer's own price is measured, not assumed: it is the
// difference between the traced and the untraced slice (Third Eye's
// rule). inner and outer, calibrated on empty spans, only say how a
// span's cost splits between its own interval and its parent's, so the
// seams can be relieved of exactly their part of that difference.
func reconcileSlice(w workload, m layerSet, floorNs, ownNs float64, s totals, untracedMean, tracedMean, inner, outer float64) reconcile {
	reqs := float64(max(s.reqs, 1))
	rc := reconcile{UntracedMeanNs: untracedMean, TracedMeanNs: tracedMean}
	rc.TraceOverheadPct = 100 * (tracedMean - untracedMean) / untracedMean
	var seamSpans float64
	for i := spGuard; i < spCount; i++ {
		seamSpans += float64(s.count[i]) / reqs
		if i != spFiles {
			rc.SeamSelfNs += float64(s.selfNs[i]) / reqs
		}
	}
	// A span's inner cost lands in its own interval; its outer cost in
	// its parent's, which is a seam too unless the parent is the root.
	// Spans directly under the root: the two guards, the document
	// root, the access log, monitor and post.
	top := float64(s.count[spGuard]+s.count[spBaseline]+s.count[spFiles]+s.count[spAccessLog]+s.count[spMonitor]+s.count[spPost]) / reqs
	files := float64(s.count[spFiles]) / reqs
	calibrated := (seamSpans + 1) * (inner + outer) // every span of the request, the root too
	inSeams := (seamSpans-files)*inner + (seamSpans-top)*outer
	rc.SpanCostNs = max(0, tracedMean-untracedMean) * inSeams / calibrated
	rc.SeamSelfNs -= rc.SpanCostNs

	rc.FloorNs = floorNs
	if w.tcp {
		// The floor reads documents from a map; the file-backed deployment
		// opens them on disk. The difference is read off this slice's own
		// document-root spans.
		rc.FloorNs += float64(s.selfNs[spFiles])/reqs - files*(inner+m["httpd.files_open_map_ns"].Value)
	}
	rc.ServerExtraNs = ownNs - floorNs
	rc.RootSelfNs = float64(s.rootSelf[0]) / float64(max(s.rootCount[0], 1))
	rc.MonitoredShare = float64(s.rootCount[1]) / reqs
	if s.rootCount[0] > 0 && s.rootCount[1] > 0 {
		rc.MonitoredExtraNs = float64(s.rootSelf[1])/float64(s.rootCount[1]) - float64(s.rootSelf[0])/float64(s.rootCount[0])
	}
	rc.ModelNs = rc.SeamSelfNs + rc.FloorNs + rc.ServerExtraNs + rc.MonitoredShare*rc.MonitoredExtraNs
	rc.GapPct = 100 * (rc.ModelNs - untracedMean) / untracedMean
	return rc
}

// medianReconcile is the field-wise median over the slices.
func medianReconcile(recs []reconcile) *reconcile {
	field := func(get func(*reconcile) float64) float64 {
		v := make([]float64, len(recs))
		for i := range recs {
			v[i] = get(&recs[i])
		}
		return median(v)
	}
	return &reconcile{
		UntracedMeanNs:   field(func(r *reconcile) float64 { return r.UntracedMeanNs }),
		TracedMeanNs:     field(func(r *reconcile) float64 { return r.TracedMeanNs }),
		TraceOverheadPct: field(func(r *reconcile) float64 { return r.TraceOverheadPct }),
		SeamSelfNs:       field(func(r *reconcile) float64 { return r.SeamSelfNs }),
		SpanCostNs:       field(func(r *reconcile) float64 { return r.SpanCostNs }),
		FloorNs:          field(func(r *reconcile) float64 { return r.FloorNs }),
		ServerExtraNs:    field(func(r *reconcile) float64 { return r.ServerExtraNs }),
		MonitoredShare:   field(func(r *reconcile) float64 { return r.MonitoredShare }),
		MonitoredExtraNs: field(func(r *reconcile) float64 { return r.MonitoredExtraNs }),
		RootSelfNs:       field(func(r *reconcile) float64 { return r.RootSelfNs }),
		ModelNs:          field(func(r *reconcile) float64 { return r.ModelNs }),
		GapPct:           field(func(r *reconcile) float64 { return r.GapPct }),
	}
}

// classCounts replays worker 0's generator and counts request classes
// over the first warm+n requests.
func classCounts(w workload, seed int64, warm, n int) [3]int {
	var c [3]int
	g := newGenerator(w.stream, seed, 0, warm+n)
	for i := 0; i < warm+n; i++ {
		it := g.next()
		if i >= warm {
			c[it.class]++
		}
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
