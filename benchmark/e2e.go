package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"gaaapi/internal/httpd"
)

// env is where the harness keeps what it builds and writes: everything
// lives under <benchmark dir>/out, inside the checkout.
type env struct {
	benchDir string // the benchmark module's directory
	outDir   string // benchDir/out: trace files, bin/, tmp/
	scratch  string // outDir/tmp: state dirs, generated sites
	workers  int
	scale    float64  // multiplies every request count; 1 outside the smoke test
	httpdBin string   // built on first use
	fixed    layerSet // the workload-independent layer figures, measured on first use
}

// scaled applies the run's scale to a request count.
func (e *env) scaled(n int) int { return max(1, int(float64(n)*e.scale)) }

func newEnv(benchDir string, workers int, scale float64) (*env, error) {
	e := &env{benchDir: benchDir, outDir: filepath.Join(benchDir, "out"), workers: workers, scale: scale}
	e.scratch = filepath.Join(e.outDir, "tmp")
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) httpd() (string, error) {
	if e.httpdBin == "" {
		bin, err := buildHTTPD(e.benchDir, filepath.Join(e.outDir, "bin"))
		if err != nil {
			return "", err
		}
		e.httpdBin = bin
	}
	return e.httpdBin, nil
}

// deploy builds w's deployment through its public composition root.
func (e *env) deploy(w workload) (deployment, error) {
	if w.tcp {
		bin, err := e.httpd()
		if err != nil {
			return nil, err
		}
		return deployHTTPD(bin, e.scratch)
	}
	return w.deployInproc(e.scratch)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eResult is one untraced run of one workload.
type e2eResult struct {
	Workload   string  `json:"workload"`
	StreamHash string  `json:"stream_hash"`
	Requests   int     `json:"requests"` // timed part
	Attempted  int     `json:"attempted"`
	Correct    int     `json:"correct"`
	Failed     int     `json:"failed"`
	Failure    string  `json:"first_failure,omitempty"`
	Samples    uint64  `json:"latency_samples"`
	WallS      float64 `json:"timed_wall_s"`
	// Metrics are the bounded end-to-end metrics of BENCHMARK.json.
	Metrics map[string]metric `json:"metrics"`
	// Absolute are the readings the relative metrics were made from, and
	// the floor's own: what this machine did in this minute. They are
	// printed for the reader and bounded by nothing.
	Absolute map[string]metric `json:"absolute"`
}

const (
	// timedPairs is the number of slices the timed part is cut into;
	// each is followed by a slice of the floor.
	timedPairs   = 20
	setupRepeats = 4
	// floorSliceMin is the least number of requests in an in-process
	// floor slice.
	floorSliceMin = 60000
	// aaRuns is the number of runs in each of -aa's two sets.
	aaRuns = 3
	// runLimit bounds the set-ups and the timed part, each; the contract
	// allows a run 180 s in all.
	runLimit = 75 * time.Second
)

// measureE2E sets w up (fresh deployment + warm-up), runs the timed
// part of the stream against it and reduces it to the end-to-end
// metrics. setupRepeats-1 more set-ups, of deployments thrown away at
// once, are spread over the run; setup_s is the fastest of them all.
// Outside noise only ever adds time, and on this machine it comes in
// episodes of seconds: back-to-back set-ups all fall inside one.
//
// The timed part is cut into timedPairs slices, and after each the same
// number of legitimate requests goes to the floor: the same site behind
// the same httpd.Server with no guard, no firewall and no log. Every
// time the run reports is divided by the floor's median request time in
// the same pair, and the throughput by the floor's, so a machine that
// is a third slower for a minute (this one is, see README) slows both
// sides of the division. What is left is the paper's section 8 figure:
// what the guard costs relative to the server without it.
func (e *env) measureE2E(w workload, seed int64, timed int) (*e2eResult, error) {
	workers := e.workers
	warmPer, slicePer := e.scaled(w.warmup)/workers, timed/workers/timedPairs
	if warmPer < 1 || slicePer < 1 {
		return nil, fmt.Errorf("%s: %d requests is too few for %d workers", w.name, timed, workers)
	}
	timedPer := slicePer * timedPairs
	// A floor slice is as long as the slice before it, and in-process,
	// where a request takes well under a microsecond, long enough to
	// last tens of milliseconds.
	floorPer := slicePer
	if !w.tcp {
		floorPer = max(slicePer, e.scaled(floorSliceMin))
	}
	// Only the binary build is outside set-up time.
	if w.tcp {
		if _, err := e.httpd(); err != nil {
			return nil, err
		}
	}
	res := &e2eResult{
		Workload:   w.name,
		StreamHash: streamHash(w.stream, seed, workers, warmPer+timedPer),
		Requests:   timedPer * workers,
	}

	// The run is against the first deployment set up. The other
	// set-ups are throw-away ones made between the timed slices, a
	// quarter of the run apart.
	deadline := time.Now().Add(runLimit)
	live, err := e.setUp(w, seed, warmPer, timedPer, deadline, res)
	if err != nil {
		return nil, err
	}
	defer live.close()
	dep, clients, gens := live.dep, live.clients, live.gens
	setups := []float64{live.seconds}

	fl, err := e.deployFloor(w, seed, floorPer*timedPairs)
	if err != nil {
		return nil, fmt.Errorf("%s: floor: %w", w.name, err)
	}
	defer fl.close()
	if r := fl.run(min(slicePer, warmPer), time.Until(deadline)); r.failed() > 0 {
		return nil, fmt.Errorf("%s: floor warm-up: %s", w.name, r.failure)
	}

	// Every unsent request of a run the watchdog cuts short is a failure.
	res.Attempted += timedPer * workers
	deadline = time.Now().Add(runLimit)
	mallocs0, err := dep.mallocs()
	if err != nil {
		return nil, err
	}
	var rps, p50, p99, cpu, floorRps, floorP50 []float64
	sent := 0
	start := time.Now()
	for k := 0; k < timedPairs; k++ {
		if k > 0 && k%(timedPairs/setupRepeats) == 0 {
			var err error
			dep.aside(func() {
				var extra *liveDeployment
				if extra, err = e.setUp(w, seed, warmPer, 0, deadline, res); err == nil {
					setups = append(setups, extra.seconds)
					extra.close()
				}
			})
			if err != nil {
				return nil, err
			}
		}
		cpu0, err := dep.cpuSeconds()
		if err != nil {
			return nil, err
		}
		run := runClosedLoop(clients, gens, slicePer, 1, time.Until(deadline), nil)
		cpu1, err := dep.cpuSeconds()
		if err != nil {
			return nil, err
		}
		res.Correct += run.correct
		sent += run.attempted
		if res.Failure == "" {
			res.Failure = run.failure
		}
		if run.timedOut {
			break
		}
		var ref loopResult
		dep.aside(func() { ref = fl.run(floorPer, time.Until(deadline)) })
		if ref.failed() > 0 {
			return nil, fmt.Errorf("%s: floor: %s", w.name, ref.failure)
		}
		a, b, c, n := run.sliceStats(workers)
		fa, fb, _, _ := ref.sliceStats(workers)
		res.Samples += n
		rps, p50, p99 = append(rps, a), append(p50, b), append(p99, c)
		cpu = append(cpu, (cpu1-cpu0)*1e6/float64(run.attempted))
		floorRps, floorP50 = append(floorRps, fa), append(floorP50, fb)
	}
	res.WallS = time.Since(start).Seconds()
	mallocs1, err := dep.mallocs()
	if err != nil {
		return nil, err
	}
	heap, err := dep.heapLive()
	if err != nil {
		return nil, err
	}
	res.Failed = res.Attempted - res.Correct

	// rel is the median over the pairs of a[k]/b[k].
	rel := func(a, b []float64) float64 {
		q := make([]float64, len(a))
		for k := range a {
			q[k] = a[k] / b[k]
		}
		return median(q)
	}
	res.Metrics = map[string]metric{
		"setup_s":         {slices.Min(setups), "s"},
		"throughput_rel":  {rel(rps, floorRps), "ratio"},
		"latency_p50_rel": {rel(p50, floorP50), "x"},
		"latency_p99_rel": {rel(p99, floorP50), "x"},
		"cpu_rel":         {rel(cpu, floorP50), "x"},
		"allocs_per_req":  {float64(mallocs1-mallocs0) / float64(max(sent, 1)), "count"},
		"heap_live_mb":    {float64(heap) / (1 << 20), "MB"},
	}
	res.Absolute = map[string]metric{
		"throughput_rps":       {median(rps), "1/s"},
		"latency_p50_us":       {median(p50), "us"},
		"latency_p99_us":       {median(p99), "us"},
		"cpu_us_per_req":       {median(cpu), "us"},
		"floor_throughput_rps": {median(floorRps), "1/s"},
		"floor_latency_p50_us": {median(floorP50), "us"},
	}
	return res, nil
}

// liveDeployment is one deployment set up and warmed, with the clients
// and the generators (positioned after the warm-up) that drive it.
type liveDeployment struct {
	dep     deployment
	clients []client
	gens    []*generator
	seconds float64 // set-up time: construction to the end of the warm-up
}

func (l *liveDeployment) close() {
	closeAll(l.clients)
	l.dep.close()
}

// setUp builds w's deployment and sends it the warm-up; the generators
// are sized for timedPer more requests. The warm-up's requests are
// added to res.
func (e *env) setUp(w workload, seed int64, warmPer, timedPer int, deadline time.Time, res *e2eResult) (*liveDeployment, error) {
	// Generators (the harness's address and target pools) are built
	// before the clock starts: set-up time is the program's.
	l := &liveDeployment{gens: make([]*generator, e.workers), clients: make([]client, e.workers)}
	for k := range l.gens {
		l.gens[k] = newGenerator(w.stream, seed, k, warmPer+timedPer)
	}
	t0 := time.Now()
	var err error
	if l.dep, err = e.deploy(w); err != nil {
		return nil, err
	}
	for k := range l.clients {
		l.clients[k] = l.dep.client(k)
	}
	warm := runClosedLoop(l.clients, l.gens, warmPer, 1, time.Until(deadline), nil)
	l.seconds = time.Since(t0).Seconds()
	res.Attempted += warm.planned
	res.Correct += warm.correct
	if res.Failure == "" {
		res.Failure = warm.failure
	}
	if warm.timedOut {
		l.close()
		return nil, fmt.Errorf("%s: warm-up: %s", w.name, warm.failure)
	}
	return l, nil
}

// floor is the reference the relative metrics are divided by: w's site
// served by a bare httpd.Server ("Apache without GAA") to the
// legitimate part of w's stream. Over TCP the same server sits behind
// net/http on loopback in this process and reads its documents from
// files, as gaa-httpd does.
type floor struct {
	clients []client
	gens    []*generator
	stop    func()
}

func (w workload) floorStream() string {
	if w.stream == streamSiege {
		return streamBrowse // siege's legitimate requests
	}
	return w.stream
}

func (e *env) deployFloor(w workload, seed int64, n int) (*floor, error) {
	f := &floor{stop: func() {}}
	for k := 0; k < e.workers; k++ {
		f.gens = append(f.gens, newGenerator(w.floorStream(), seed, k, n))
	}
	if !w.tcp {
		bare := httpd.NewServer(httpd.Config{DocRoot: w.stackConfig("", nil).DocRoot, Scripts: httpd.NewDemoRegistry()})
		for k := 0; k < e.workers; k++ {
			f.clients = append(f.clients, newInprocClient(bare))
		}
		return f, nil
	}
	tmp, err := os.MkdirTemp(e.scratch, "floor-")
	if err != nil {
		return nil, err
	}
	_, site, err := writeSite(tmp)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	srv := &http.Server{Handler: httpd.NewServer(httpd.Config{Files: httpd.NewOSRoot(site), Scripts: httpd.NewDemoRegistry()})}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
		close(done)
	}()
	for k := 0; k < e.workers; k++ {
		f.clients = append(f.clients, newTCPClient(ln.Addr().String(), k))
	}
	f.stop = func() {
		srv.Close()
		<-done
		os.RemoveAll(tmp)
	}
	return f, nil
}

// run sends the next perWorker requests of the floor's stream.
func (f *floor) run(perWorker int, limit time.Duration) loopResult {
	return runClosedLoop(f.clients, f.gens, perWorker, 1, limit, nil)
}

func (f *floor) close() {
	closeAll(f.clients)
	f.stop()
}

func closeAll(clients []client) {
	for _, c := range clients {
		if c != nil {
			c.close()
		}
	}
}
