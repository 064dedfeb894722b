package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gaaapi/internal/bench"
	"gaaapi/internal/conditions"
	"gaaapi/internal/gaa"
	"gaaapi/internal/gaahttp"
	"gaaapi/internal/groups"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/workload"
)

// ParallelGoroutines are the concurrency levels the parallel suite
// sweeps (cmd/gaa-bench -parallel).
var ParallelGoroutines = []int{1, 4, 16}

// ParallelResult is one (scenario, concurrency) measurement of the
// decision hot path, the machine-readable shape behind
// BENCH_parallel.json.
type ParallelResult struct {
	Scenario    string  `json:"scenario"`
	Goroutines  int     `json:"goroutines"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	ReqPerSec   float64 `json:"req_per_sec"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// measureParallel runs ops operations spread over the given number of
// goroutines. newOp builds a per-goroutine operation closure, so each
// worker can hold goroutine-local state (a reused Answer, say) without
// synchronization. Allocation figures come from the runtime's exact
// Mallocs/TotalAlloc counters around the timed region.
func measureParallel(scenario string, goroutines, ops int, newOp func() func() error) (ParallelResult, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		errMu sync.Mutex
		err   error
	)
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := newOp()
			for next.Add(1) <= int64(ops) {
				if e := op(); e != nil {
					errMu.Lock()
					if err == nil {
						err = e
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return ParallelResult{}, fmt.Errorf("%s at %d goroutines: %w", scenario, goroutines, err)
	}

	n := float64(ops)
	return ParallelResult{
		Scenario:    scenario,
		Goroutines:  goroutines,
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		ReqPerSec:   n / elapsed.Seconds(),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
	}, nil
}

// parallelScenario is one hot-path configuration swept over
// ParallelGoroutines.
type parallelScenario struct {
	name string
	ops  int
	// build assembles the scenario once; the returned factory is handed
	// to measureParallel per concurrency level.
	build func(opts Options) (newOp func() func() error, cleanup func(), err error)
}

func parallelScenarios() []parallelScenario {
	return []parallelScenario{
		// The E4 shape: the access-control hook against file-shaped
		// (re-translating) sources with the composed-policy cache on.
		// The adaptive scorer is wired in async mode (the production
		// -adaptive shape), so the measured path carries the full
		// detector feed — the bench guard thereby pins that enabling
		// detection keeps the cached path inside the envelope.
		{name: "guard-cached", ops: 50000, build: func(opts Options) (func() func() error, func(), error) {
			api := gaa.New(gaa.WithPolicyCache(64))
			conditions.Register(api, conditions.Deps{
				Threat: ids.NewManager(ids.Low),
				Groups: groups.NewStore(),
			})
			scorer := adaptive.New(adaptive.Defaults(), nil, nil)
			guard := gaahttp.New(gaahttp.Config{
				API:    api,
				System: []gaa.PolicySource{&parsingSource{text: Policy71System}},
				Local:  []gaa.PolicySource{&parsingSource{text: Policy72LocalNoNotify}},
				Scorer: scorer,
			})
			rec := httpd.NewRequestRec(workload.Legit(1, opts.Seed)[0].HTTPRequest(), nil, time.Now())
			return func() func() error {
				return func() error {
					guard.Check(rec)
					return nil
				}
			}, func() { scorer.Close() }, nil
		}},
		// guard-cached without the composed-policy cache: every check
		// re-retrieves and re-composes the policy from stable in-memory
		// sources, so the figure isolates composition + decision cost.
		// (Stable sources keep the compiled-program cache warm, as a
		// SwappableSource deployment would.)
		{name: "guard-uncached", ops: 20000, build: func(opts Options) (func() func() error, func(), error) {
			api := gaa.New()
			conditions.Register(api, conditions.Deps{
				Threat: ids.NewManager(ids.Low),
				Groups: groups.NewStore(),
			})
			sys := gaa.NewMemorySource()
			if err := sys.AddPolicy("*", Policy71System); err != nil {
				return nil, nil, err
			}
			loc := gaa.NewMemorySource()
			if err := loc.AddPolicy("*", Policy72LocalNoNotify); err != nil {
				return nil, nil, err
			}
			scorer := adaptive.New(adaptive.Defaults(), nil, nil)
			guard := gaahttp.New(gaahttp.Config{
				API:    api,
				System: []gaa.PolicySource{sys},
				Local:  []gaa.PolicySource{loc},
				Scorer: scorer,
			})
			rec := httpd.NewRequestRec(workload.Legit(1, opts.Seed)[0].HTTPRequest(), nil, time.Now())
			return func() func() error {
				return func() error {
					guard.Check(rec)
					return nil
				}
			}, func() { scorer.Close() }, nil
		}},
		// The core three-phase entry point alone: a trace-disabled grant
		// on a cached policy through CheckAuthorizationInto, each worker
		// reusing its own Answer (the zero-allocation fast path).
		{name: "api-grant-cached", ops: 200000, build: func(opts Options) (func() func() error, func(), error) {
			api := gaa.New(gaa.WithPolicyCache(64))
			conditions.Register(api, conditions.Deps{
				Threat: ids.NewManager(ids.Low),
				Groups: groups.NewStore(),
			})
			src := gaa.NewMemorySource()
			if err := src.AddPolicy("*", Policy72LocalNoNotify); err != nil {
				return nil, nil, err
			}
			policy, err := api.GetObjectPolicyInfo("/index.html", nil, []gaa.PolicySource{src})
			if err != nil {
				return nil, nil, err
			}
			req := gaa.NewRequest("apache", "GET /index.html",
				gaa.Param{Type: gaa.ParamRequestURI, Authority: gaa.AuthorityAny, Value: "GET /index.html"},
				gaa.Param{Type: gaa.ParamInputLength, Authority: gaa.AuthorityAny, Value: "14"})
			return func() func() error {
				ans := new(gaa.Answer)
				ctx := context.Background()
				return func() error {
					if err := api.CheckAuthorizationInto(ctx, policy, req, ans); err != nil {
						return err
					}
					if ans.Decision != gaa.Yes {
						return fmt.Errorf("decision = %v, want yes", ans.Decision)
					}
					return nil
				}
			}, func() {}, nil
		}},
		// The decision engine with no caching anywhere: the policy is
		// re-retrieved per op and the answer recomputed.
		{name: "api-grant-uncached", ops: 50000, build: buildAPIGrantUncached},
		// The E11 shape: whole requests through the guarded server.
		{name: "server-e11", ops: 10000, build: func(opts Options) (func() func() error, func(), error) {
			st, err := gaahttp.NewStack(gaahttp.StackConfig{
				SystemPolicy:  Policy71System,
				LocalPolicies: map[string]string{"*": Policy72LocalNoNotify},
				DocRoot:       workload.DocRoot(),
				PolicyCache:   true,
			})
			if err != nil {
				return nil, nil, err
			}
			r := workload.Legit(1, opts.Seed)[0]
			return func() func() error {
				// Per-worker reusable response sink and a prebuilt
				// request, so the figure is the server's own cost, not
				// the recorder harness's.
				w := newNullResponse()
				hr := r.HTTPRequest()
				return func() error {
					w.reset()
					st.Server.ServeHTTP(w, hr)
					if w.code != http.StatusOK {
						return fmt.Errorf("status %d for %s", w.code, r.Target)
					}
					return nil
				}
			}, st.Close, nil
		}},
	}
}

// signatureSweepPolicy is the uncached-grant workload: the section 7.2
// signature list grown to a realistic IDS signature database — n
// per-path deny entries (each guarding one known-exploit URL prefix),
// the paper's buffer-overflow detector, then the allow-everything-else
// entry. A legitimate request matches none of the deny rights, which
// is precisely the shape the compiled first-match trie prunes and an
// entry-by-entry scan pays O(entries) for.
func signatureSweepPolicy(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "neg_access_right apache GET /cgi-bin/sig%d*\npre_cond_system_threat_level local >low\n", i)
	}
	b.WriteString("neg_access_right apache *\npre_cond_expr local input_length>1000\npos_access_right apache *\n")
	return b.String()
}

// buildAPIGrantUncached is the uncached-grant scenario: per-op policy
// retrieval + decision over the signature sweep.
func buildAPIGrantUncached(Options) (func() func() error, func(), error) {
	api := gaa.New()
	conditions.Register(api, conditions.Deps{
		Threat: ids.NewManager(ids.Low),
		Groups: groups.NewStore(),
	})
	src := gaa.NewMemorySource()
	if err := src.AddPolicy("*", signatureSweepPolicy(128)); err != nil {
		return nil, nil, err
	}
	local := []gaa.PolicySource{src}
	req := gaa.NewRequest("apache", "GET /index.html",
		gaa.Param{Type: gaa.ParamRequestURI, Authority: gaa.AuthorityAny, Value: "GET /index.html"},
		gaa.Param{Type: gaa.ParamInputLength, Authority: gaa.AuthorityAny, Value: "14"})
	return func() func() error {
		ans := new(gaa.Answer)
		ctx := context.Background()
		return func() error {
			policy, err := api.GetObjectPolicyInfo("/index.html", nil, local)
			if err != nil {
				return err
			}
			if err := api.CheckAuthorizationInto(ctx, policy, req, ans); err != nil {
				return err
			}
			if ans.Decision != gaa.Yes {
				return fmt.Errorf("decision = %v, want yes", ans.Decision)
			}
			return nil
		}
	}, func() {}, nil
}

// nullResponse is a reusable ResponseWriter that discards bodies; the
// parallel suite uses it instead of httptest.NewRecorder so harness
// allocations stay out of the per-op figures.
type nullResponse struct {
	header http.Header
	code   int
	bytes  int
}

func newNullResponse() *nullResponse {
	return &nullResponse{header: make(http.Header, 4)}
}

func (w *nullResponse) Header() http.Header { return w.header }

func (w *nullResponse) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *nullResponse) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.bytes += len(p)
	return len(p), nil
}

func (w *nullResponse) reset() {
	w.code = 0
	w.bytes = 0
	clear(w.header)
}

// ParallelResults runs every scenario at every concurrency level.
func ParallelResults(opts Options) ([]ParallelResult, error) {
	return ParallelResultsScaled(opts, 1)
}

// ParallelResultsScaled is ParallelResults with every scenario's op
// count multiplied by scale (minimum 1 op). The regression guard
// (TestBenchGuard) runs the suite at a small scale so it fits a test
// budget while measuring the same code paths.
func ParallelResultsScaled(opts Options, scale float64) ([]ParallelResult, error) {
	opts = opts.Defaults()
	var out []ParallelResult
	for _, sc := range parallelScenarios() {
		newOp, cleanup, err := sc.build(opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		ops := int(float64(sc.ops) * scale)
		if ops < 1 {
			ops = 1
		}
		for _, g := range ParallelGoroutines {
			res, err := measureParallel(sc.name, g, ops, newOp)
			if err != nil {
				cleanup()
				return nil, err
			}
			out = append(out, res)
		}
		cleanup()
	}
	return out, nil
}

// Parallel prints the parallel throughput table (cmd/gaa-bench
// -parallel).
func Parallel(w io.Writer, opts Options) error {
	results, err := ParallelResults(opts)
	if err != nil {
		return err
	}
	tbl := bench.Table{
		Title:  "Parallel decision-path throughput (read-mostly cache, pooled eval state)",
		Header: []string{"scenario", "goroutines", "ns/op", "req/s", "B/op", "allocs/op"},
		Notes: []string{
			fmt.Sprintf("GOMAXPROCS=%d; fixed op counts per scenario; tracing disabled", runtime.GOMAXPROCS(0)),
		},
	}
	for _, r := range results {
		tbl.AddRow(r.Scenario, fmt.Sprintf("%d", r.Goroutines),
			fmt.Sprintf("%.0f", r.NsPerOp), fmt.Sprintf("%.0f", r.ReqPerSec),
			fmt.Sprintf("%.1f", r.BytesPerOp), fmt.Sprintf("%.2f", r.AllocsPerOp))
	}
	tbl.Fprint(w)
	return nil
}

// WriteParallelJSON emits the results as indented JSON
// (BENCH_parallel.json).
func WriteParallelJSON(w io.Writer, results []ParallelResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
