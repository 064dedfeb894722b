package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gaaapi/internal/actions"
	"gaaapi/internal/audit"
	"gaaapi/internal/conditions"
	"gaaapi/internal/eacl"
	"gaaapi/internal/execctl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/gaahttp"
	"gaaapi/internal/groups"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/metrics"
	"gaaapi/internal/netblock"
	"gaaapi/internal/statestore"
)

// opBatch is how long one batch of a timed call lasts at scale 1.
const opBatch = 6 * time.Millisecond

// timeOp times fn, a sub-millisecond operation: five batches of about
// opBatch each (scaled with the run), the median batch mean is the
// figure. Allocations are the runtime's exact malloc count over all
// batches. fn receives a running index to cycle its inputs with.
func (e *env) timeOp(fn func(i int)) (nsPerOp, allocsPerOp float64) {
	const probe = 16
	i := 0
	t0 := time.Now()
	for ; i < probe; i++ {
		fn(i)
	}
	per := time.Since(t0) / probe
	batch := int(time.Duration(float64(opBatch)*min(e.scale, 1))/(per+1)) + 1
	var means []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := i
	for b := 0; b < 5; b++ {
		t := time.Now()
		for k := 0; k < batch; k++ {
			fn(i)
			i++
		}
		means = append(means, float64(time.Since(t))/float64(batch))
	}
	runtime.ReadMemStats(&after)
	return median(means), float64(after.Mallocs-before.Mallocs) / float64(i-start)
}

// timeSlow times fn, a millisecond-scale operation: the median of up
// to reps calls, fewer once they have taken a second in all.
func timeSlow(reps int, fn func() error) (time.Duration, error) {
	var d []float64
	start := time.Now()
	for i := 0; i < reps && (i == 0 || time.Since(start) < time.Second); i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d = append(d, float64(time.Since(t)))
	}
	return time.Duration(median(d)), nil
}

// materialize builds a live request for one stream item.
func materialize(it item) *http.Request {
	c := newInprocClient(nil)
	r := c.req
	r.URL.Path, r.URL.RawQuery, r.RequestURI = it.tgt.path, it.tgt.query, it.tgt.uri
	r.RemoteAddr = it.remote
	return r
}

// layerSet collects the per-layer metrics of one workload.
type layerSet map[string]metric

var ctxBG = context.Background()

// timeNs records fn's time per call as name_ns.
func (e *env) timeNs(m layerSet, name string, fn func(i int)) {
	v, _ := e.timeOp(fn)
	m[name+"_ns"] = metric{v, "ns"}
}

// timeNsAllocs is timeNs plus the _allocs twin (httpd.*, gaa.*,
// gaahttp.*).
func (e *env) timeNsAllocs(m layerSet, name string, fn func(i int)) {
	v, allocs := e.timeOp(fn)
	m[name+"_ns"] = metric{v, "ns"}
	m[name+"_allocs"] = metric{allocs, "count"}
}

// newRec is the request record of one GET of uri from a source no
// stream uses.
func newRec(uri string, now time.Time) *httpd.RequestRec {
	t := newTarget(uri, "")
	return httpd.NewRequestRec(materialize(item{tgt: &t, remote: "10.9.9.9:40000"}), nil, now)
}

// policySources are the sources a stack's guard reads its policies from.
func policySources(st *gaahttp.Stack) (sys, loc []gaa.PolicySource) {
	return []gaa.PolicySource{st.SystemSwap}, []gaa.PolicySource{st.LocalSwap}
}

// condOf returns the first condition of type typ in p.
func condOf(p *eacl.EACL, typ string) eacl.Condition {
	for _, en := range p.Entries {
		for _, c := range en.Conditions {
			if c.Type == typ {
				return c
			}
		}
	}
	panic("benchmark policy has no condition of type " + typ)
}

// siegeFinalBlocks is the number of sources a 10 s siege gets blocked:
// the size netblock and groups are timed at.
func siegeFinalBlocks() int {
	siege, _ := findWorkload("siege")
	return siege.perSecond * 10 / 20
}

func blockedAddr(i int) string { return fmt.Sprintf("11.%d.%d.%d", i>>16&255, i>>8&255, i&255) }

// fixedLayerCalls measures the per-layer figures whose inputs no
// workload's stream decides: the policy-shaped ones, which use the
// browse and sprawl deployments by name as the metric catalogue says,
// the file-backed ones, the siege state fixture and the open-loop pass.
// They are measured once per process and reported under every workload.
func (e *env) fixedLayerCalls(seed int64) (layerSet, error) {
	if e.fixed != nil {
		return e.fixed, nil
	}
	m := layerSet{}
	now := time.Now()
	_, searches := browseTargets()
	docRec := newRec("/docs/guide.html", now)
	cgiRec := newRec(searches[0].uri, now)
	attackRec := newRec(attackTargets()[0].uri, now)
	sprawlRec := newRec(sprawlPath(7, 7), now)

	tmp, err := os.MkdirTemp(e.scratch, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// What only the file-backed deployment does: documents, the local
	// policy's revision and the log line, all on real files.
	_, site, err := writeSite(tmp)
	if err != nil {
		return nil, err
	}
	osRoot := httpd.NewOSRoot(site)
	docs, _ := browseTargets()
	e.timeNsAllocs(m, "httpd.files_open_os", func(i int) { osRoot.Open(docs[i%len(docs)].path) })
	logFile, err := os.OpenFile(filepath.Join(tmp, "access.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	line := []byte(httpd.FormatCLF(docRec, 200, 20) + "\n")
	e.timeNsAllocs(m, "httpd.access_log_write", func(int) { logFile.Write(line) })
	dirSrc := gaa.NewDirSource(site, ".eacl")
	e.timeNsAllocs(m, "gaa.source_revision_dir", func(int) { dirSrc.Revision("/docs/guide.html") })

	// The three policy-shaped deployments the gaa.* figures name.
	stacks := map[string]*gaahttp.Stack{}
	defer func() {
		for _, st := range stacks {
			st.Close()
		}
	}()
	for _, name := range []string{"browse", "sprawl", "sprawl-timeout"} {
		x, _ := findWorkload(name)
		st, err := gaahttp.NewStack(x.stackConfig("", io.Discard))
		if err != nil {
			return nil, err
		}
		stacks[name] = st
	}
	// check builds the decision inputs the guard would for rec on st.
	check := func(st *gaahttp.Stack, rec *httpd.RequestRec) (*gaa.Policy, *gaa.Request, *gaa.Answer, error) {
		sys, loc := policySources(st)
		policy, err := st.API.GetObjectPolicyInfo(rec.Object(), sys, loc)
		if err != nil {
			return nil, nil, nil, err
		}
		req := &gaa.Request{Rights: st.Guard.Rights(rec), Params: gaahttp.ExtractParams(rec), Time: rec.Time}
		ans := new(gaa.Answer)
		return policy, req, ans, st.API.CheckAuthorizationInto(ctxBG, policy, req, ans)
	}
	for _, c := range []struct {
		name  string
		stack string
		rec   *httpd.RequestRec
		want  gaa.Decision
	}{
		{"gaa.check_grant", "browse", docRec, gaa.Yes},
		{"gaa.check_grant_big", "sprawl", sprawlRec, gaa.Yes},
		{"gaa.check_grant_timeout", "sprawl-timeout", sprawlRec, gaa.Yes},
		{"gaa.check_deny", "browse", attackRec, gaa.No},
	} {
		st := stacks[c.stack]
		policy, req, ans, err := check(st, c.rec)
		if err != nil {
			return nil, err
		}
		if ans.Decision != c.want {
			return nil, fmt.Errorf("%s: decision %v, want %v", c.name, ans.Decision, c.want)
		}
		e.timeNsAllocs(m, c.name, func(int) { st.API.CheckAuthorizationInto(ctxBG, policy, req, ans) })
	}
	browse := stacks["browse"]
	_, cgiReq, cgiAns, err := check(browse, cgiRec)
	if err != nil {
		return nil, err
	}
	if len(cgiAns.Mid) == 0 || len(cgiAns.Post) == 0 {
		return nil, fmt.Errorf("CGI grant carries %d mid and %d post conditions, want both", len(cgiAns.Mid), len(cgiAns.Post))
	}
	usageParams := execctl.NewUsage(nil).Snapshot().Params()
	e.timeNsAllocs(m, "gaa.execution_control", func(int) { browse.API.ExecutionControl(ctxBG, cgiAns, cgiReq, usageParams...) })
	e.timeNsAllocs(m, "gaa.post_actions", func(int) { browse.API.PostExecutionActions(ctxBG, cgiAns, cgiReq, gaa.Yes) })
	e.timeNsAllocs(m, "gaahttp.guard_check_deny", func(int) { browse.Guard.Check(attackRec) })

	// Condition evaluators, called directly (beneath the API's
	// supervision layer) on the conditions of the browse policy, with
	// BadGuys at the size siege leaves it.
	sysEACL, err := eacl.ParseString(systemPolicy)
	if err != nil {
		return nil, err
	}
	locEACL, err := eacl.ParseString(localPolicy)
	if err != nil {
		return nil, err
	}
	grp := groups.NewStore()
	for i := 0; i < siegeFinalBlocks(); i++ {
		grp.Add("BadGuys", blockedAddr(i))
	}
	cdeps := conditions.Deps{Threat: ids.NewManager(ids.Low), Groups: grp}
	grantReq := &gaa.Request{Rights: browse.Guard.Rights(docRec), Params: gaahttp.ExtractParams(docRec), Time: now}
	for _, c := range []struct {
		metric, typ string
		policy      *eacl.EACL
	}{
		{"conditions.regex", "regex", locEACL},
		{"conditions.expr", "expr", locEACL},
		{"conditions.group", "accessid_GROUP", sysEACL},
		{"conditions.threat", "system_threat_level", sysEACL},
	} {
		ev, _ := conditions.Builtin(c.typ, cdeps)
		cond := condOf(c.policy, c.typ)
		e.timeNs(m, c.metric, func(int) { ev.Evaluate(ctxBG, cond, grantReq) })
	}
	ring := audit.NewRing(1024)
	e.timeNs(m, "audit.ring_log", func(int) {
		ring.Log(audit.Record{Time: now, Kind: "gaa_check_authorization", Object: "/index.html", Decision: "yes"})
	})
	bus := ids.NewBus()
	e.timeNs(m, "ids.bus_publish", func(int) { bus.Publish(ids.Report{Time: now, Kind: ids.LegitimatePattern, ClientIP: "10.0.0.1"}) })

	// execctl with and without a monitor: the price of the goroutine
	// and ticker every CGI request under mid_cond_quota pays.
	var out bytes.Buffer
	op := func(_ context.Context, u *execctl.Usage) error {
		out.Reset()
		n, err := out.WriteString("results for \"q=eacl\": 3 documents\n")
		u.AddOutput(int64(n))
		return err
	}
	usage := execctl.NewUsage(nil)
	e.timeNs(m, "execctl.run_unmonitored", func(int) { execctl.Run(ctxBG, usage, op, nil, 500*time.Microsecond) })
	e.timeNs(m, "execctl.run_monitored", func(int) {
		execctl.Run(ctxBG, usage, op, func(execctl.Snapshot) gaa.Decision { return gaa.Yes }, 500*time.Microsecond)
	})
	h := metrics.NewRegistry().Histogram("bench_seconds", "bench", []float64{1e-6, 1e-5, 1e-4, 1e-3})
	e.timeNs(m, "metrics.observe", func(int) { h.ObserveDuration(3 * time.Microsecond) })

	if err := e.measureSiegeState(seed, m); err != nil {
		return nil, err
	}
	if err := e.measureOpenLoop(seed, m); err != nil {
		return nil, fmt.Errorf("open-loop pass: %w", err)
	}
	e.fixed = m
	return m, nil
}

// streamLayerCalls fills m with the direct timed calls whose inputs
// come from w's own stream (a sample of its first requests) or from
// w's own policy set.
func (e *env) streamLayerCalls(w workload, seed int64, m layerSet) error {
	const sampleN = 512
	g := newGenerator(w.stream, seed, 0, 200000)
	var reqs []*http.Request
	var recs []*httpd.RequestRec
	var legit *httpd.RequestRec
	now := time.Now()
	for i := 0; i < sampleN; i++ {
		it := g.next()
		r := materialize(it)
		reqs = append(reqs, r)
		rec := httpd.NewRequestRec(r, nil, now)
		recs = append(recs, rec)
		if legit == nil && it.class == classLegit {
			legit = rec
		}
	}

	// httpd: the request record, the log line, the guard-less server
	// (the "Apache without GAA" floor) and the in-memory document root.
	cfg := w.stackConfig("", nil)
	e.timeNsAllocs(m, "httpd.request_rec", func(i int) { httpd.NewRequestRec(reqs[i%sampleN], nil, now) })
	e.timeNsAllocs(m, "httpd.format_clf", func(i int) { httpd.FormatCLF(recs[i%sampleN], 200, 20) })
	bare := httpd.NewServer(httpd.Config{DocRoot: cfg.DocRoot, Scripts: httpd.NewDemoRegistry()})
	sink := &nullResponse{header: make(http.Header, 4)}
	e.timeNsAllocs(m, "httpd.serve_unguarded", func(i int) {
		sink.reset()
		bare.ServeHTTP(sink, reqs[i%sampleN])
	})
	mapRoot := httpd.MapRoot(cfg.DocRoot)
	e.timeNsAllocs(m, "httpd.files_open_map", func(i int) { mapRoot.Open(recs[i%sampleN].Path) })

	// netblock at the size siege leaves behind after a 10 s run. The set
	// is this function's own: no server reads it.
	blocks := netblock.NewSet()
	for i := 0; i < siegeFinalBlocks(); i++ {
		blocks.Block(blockedAddr(i), 0)
	}
	e.timeNs(m, "netblock.blocked_hit", func(int) { blocks.Blocked("11.0.1.1") })
	e.timeNs(m, "netblock.blocked_miss", func(i int) { blocks.Blocked(recs[i%sampleN].ClientIP) })
	e.timeNs(m, "netblock.block", func(i int) { blocks.Block(recs[i%sampleN].ClientIP, time.Minute) })

	// Policy retrieval on w's own policies (siege and browse-tcp serve
	// browse's): a hot object always hits; cycling through more objects
	// than the cache holds always misses.
	st, err := gaahttp.NewStack(w.stackConfig("", io.Discard))
	if err != nil {
		return err
	}
	defer st.Close()
	sys, loc := policySources(st)
	hot := legit.Object()
	e.timeNsAllocs(m, "gaa.policy_get_hit", func(int) { st.API.GetObjectPolicyInfo(hot, sys, loc) })
	var cold []string
	if w.stream == streamSprawl {
		for _, t := range sprawlTargets() {
			cold = append(cold, t.path)
		}
	} else {
		for i := 0; i < sprawlDirs*sprawlDocs; i++ {
			cold = append(cold, fmt.Sprintf("/docs/cold%05d.html", i))
		}
	}
	e.timeNsAllocs(m, "gaa.policy_get_miss", func(i int) { st.API.GetObjectPolicyInfo(cold[i%len(cold)], sys, loc) })
	e.timeNsAllocs(m, "gaahttp.guard_check_grant", func(int) { st.Guard.Check(legit) })
	e.timeNsAllocs(m, "gaahttp.extract_params", func(i int) { gaahttp.ExtractParams(recs[i%sampleN]) })

	// Parse and reload of w's own policy set.
	parse, err := timeSlow(5, func() error {
		if _, err := eacl.ParseString(cfg.SystemPolicy); err != nil {
			return err
		}
		for _, src := range cfg.LocalPolicies {
			if _, err := eacl.ParseString(src); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["eacl.parse_us"] = metric{float64(parse) / 1e3, "us"}
	reload, err := timeSlow(5, func() error {
		if res := st.ReloadPolicies(cfg.SystemPolicy, cfg.LocalPolicies); !res.OK {
			return fmt.Errorf("reload rejected: %s", res.Err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["gaahttp.reload_ms"] = metric{float64(reload) / 1e6, "ms"}

	// The response actions of the browse policy, called directly on
	// w's requests as if each had been denied.
	locEACL, err := eacl.ParseString(localPolicy)
	if err != nil {
		return err
	}
	adeps := actions.Deps{Groups: groups.NewStore(), Audit: audit.NewRing(1024), Blocks: netblock.NewSet()}
	denyReqs := make([]*gaa.Request, sampleN)
	for i, rec := range recs {
		denyReqs[i] = &gaa.Request{Rights: st.Guard.Rights(rec), Params: gaahttp.ExtractParams(rec), Time: now, Decision: gaa.No}
	}
	for _, name := range []string{"update_log", "block_ip", "audit"} {
		ev, _ := actions.Builtin(name, adeps, time.Now)
		cond := condOf(locEACL, name)
		e.timeNs(m, "actions."+name, func(i int) { ev.Evaluate(ctxBG, cond, denyReqs[i%sampleN]) })
	}
	grp := groups.NewStore()
	for i := 0; i < siegeFinalBlocks(); i++ {
		grp.Add("BadGuys", blockedAddr(i))
	}
	fresh := groups.NewStore()
	e.timeNs(m, "groups.add", func(i int) { fresh.Add("BadGuys", recs[i%sampleN].ClientIP) })
	e.timeNs(m, "groups.contains", func(i int) { grp.Contains("BadGuys", recs[i%sampleN].ClientIP) })
	sigs := ids.NewDB(ids.DefaultSignatures()...)
	e.timeNs(m, "ids.sig_match", func(i int) { sigs.Match(recs[i%sampleN].URI) })
	anomaly := ids.NewDetector(ids.DefaultAnomalyConfig())
	e.timeNs(m, "ids.anomaly_train", func(i int) {
		r := recs[i%sampleN]
		anomaly.Train(r.ClientIP, r.Path, r.InputLength)
	})

	// One journal append, and the adaptive scorer on its own (no
	// workload runs it; README says why).
	tmp, err := os.MkdirTemp(e.scratch, "append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	store, err := statestore.Open(tmp, statestore.Options{Fsync: statestore.FsyncInterval, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	e.timeNs(m, "statestore.append", func(i int) {
		store.Append(statestore.KindBlock, netblock.Event{Addr: recs[i%sampleN].ClientIP})
	})
	store.Close()
	scorer := adaptive.New(adaptive.Defaults(), nil, nil)
	e.timeNs(m, "adaptive.observe", func(i int) {
		r := recs[i%sampleN]
		scorer.ObserveRequest(adaptive.Sample{Time: now, Source: r.ClientIP, Path: r.Path, Query: r.Query, InputLen: r.InputLength})
	})
	scorer.Close()
	return nil
}

// serverProbe times the server's own share of a request in context:
// right after a request went through a full deployment, the same
// request is served by the guard-less floor server and by that server
// with a firewall set and an access log. Timed in a tight loop the two
// read about half as much: there the server's code and data are
// still in cache and no collector is running on the guard's garbage.
type serverProbe struct {
	bare, own      *httpd.Server
	sink           nullResponse
	floorNs, ownNs int64
	n              int64
	timerNs        float64 // cost of one time.Now/time.Since pair
}

// newServerProbe builds the two guard-less servers for w. bare is the
// floor. own is the server's whole own share: the floor plus the
// firewall lookup and the formatted access-log line, with nothing behind
// the seams (no guard, a discarding log). It reads the block set of the
// deployment it follows, so it drops at the firewall the sources that
// deployment has blocked by then and no others.
func (e *env) newServerProbe(w workload, blocks *netblock.Set) *serverProbe {
	docRoot := w.stackConfig("", nil).DocRoot
	p := &serverProbe{
		bare: httpd.NewServer(httpd.Config{DocRoot: docRoot, Scripts: httpd.NewDemoRegistry()}),
		own:  httpd.NewServer(httpd.Config{DocRoot: docRoot, Scripts: httpd.NewDemoRegistry(), Blocks: blocks, AccessLog: io.Discard}),
		sink: nullResponse{header: make(http.Header, 4)},
	}
	p.timerNs, _ = e.timeOp(func(int) { _ = time.Since(time.Now()) })
	return p
}

func (p *serverProbe) after(r *http.Request) {
	t0 := time.Now()
	p.sink.reset()
	p.bare.ServeHTTP(&p.sink, r)
	t1 := time.Now()
	p.sink.reset()
	p.own.ServeHTTP(&p.sink, r)
	p.ownNs += int64(time.Since(t1))
	p.floorNs += int64(t1.Sub(t0))
	p.n++
}

// take returns the mean floor and own time per call since the last
// take, net of the timer's own cost.
func (p *serverProbe) take() (floorNs, ownNs float64) {
	n := float64(max(p.n, 1))
	floorNs, ownNs = float64(p.floorNs)/n-p.timerNs, float64(p.ownNs)/n-p.timerNs
	p.floorNs, p.ownNs, p.n = 0, 0, 0
	return floorNs, ownNs
}

// probedClient serves each request through the full deployment, then
// hands it to the probe.
type probedClient struct {
	*inprocClient
	probe *serverProbe
}

func (c probedClient) do(it *item) (int, int, error) {
	status, n, err := c.inprocClient.do(it)
	c.probe.after(c.req)
	return status, n, err
}

// siegeStateRequests is the length of the siege that produces the
// state directory statestore.compact_ms and recover_ms are timed on.
const siegeStateRequests = 100000

func (e *env) measureSiegeState(seed int64, m layerSet) error {
	siege, _ := findWorkload("siege")
	d, err := siege.deployInproc(e.scratch)
	if err != nil {
		return err
	}
	defer d.close()
	c := d.client(0)
	n := e.scaled(siegeStateRequests)
	run := runClosedLoop([]client{c}, []*generator{newGenerator(siege.stream, seed, 0, n)}, n, 1, runLimit, nil)
	if run.failed() > 0 {
		return fmt.Errorf("siege state fixture: %s", run.failure)
	}
	compact, err := timeSlow(5, d.stack.Store.Compact)
	if err != nil {
		return err
	}
	m["statestore.compact_ms"] = metric{float64(compact) / 1e6, "ms"}
	d.stack.Close()
	d.stack = nil
	recover, err := timeSlow(5, func() error {
		s, err := statestore.Open(d.tmp, statestore.Options{})
		if err != nil {
			return err
		}
		return s.Close()
	})
	if err != nil {
		return err
	}
	m["statestore.recover_ms"] = metric{float64(recover) / 1e6, "ms"}
	return nil
}
