// Command benchmark is the one benchmark of the GAA guard: five named
// workloads, seven bounded end-to-end metrics, a table of per-layer
// metrics and a traced run. README.md in this directory is the metric
// catalogue; BENCHMARK.json at the repository root fixes the bounds.
//
//	go run -C benchmark . -workload all -seed 2003 -json
//	go run -C benchmark . --workload siege --seed 7 --seconds 10 --trace 0
//	go run -C benchmark . -aa
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(run(os.Args[1:], 1, os.Stdout, os.Stderr))
}

// header says where and how a result was produced, so results from
// different days and machines form a comparable trajectory.
type header struct {
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`      // CPUs this process may run on
	PinnedCPU  string            `json:"pinned_cpu"` // the one CPU main pinned the run to; "" in tests
	CPUModel   string            `json:"cpu_model"`
	Commit     string            `json:"commit"`
	Timestamp  string            `json:"timestamp"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Scale      float64           `json:"scale"`
	Workers    int               `json:"workers"`
	Streams    map[string]string `json:"stream_hashes"`
}

type workloadReport struct {
	EndToEnd *e2eResult    `json:"end_to_end,omitempty"`
	Layers   *layersResult `json:"layers,omitempty"`
}

type report struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

// contractLine is the last line of standard output in single-workload
// mode, the shape the driver parses.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the program. scale multiplies every request count: 1 for
// main, 0.001 for the smoke test.
func run(args []string, scale float64, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "browse | siege | sprawl | sprawl-timeout | browse-tcp | all")
	seed := fs.Int64("seed", 2003, "stream seed: the same seed gives the same requests")
	seconds := fs.Int("seconds", 10, "length of the timed part; each workload sends a fixed number of requests per second of it")
	trace := fs.String("trace", "", "0: end-to-end metrics, 1: per-layer metrics and the traced run (single workload); all runs both")
	asJSON := fs.Bool("json", false, "with -workload all: print one JSON document")
	aa := fs.Bool("aa", false, "run the end-to-end suite twice on this build and fail if the two sets disagree beyond the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	benchDir, err := findBenchDir()
	if err != nil {
		return fail(err)
	}
	// One worker per CPU the process may use, at most two: main has
	// pinned itself to one CPU, the smoke test runs on all of them.
	e, err := newEnv(benchDir, min(2, runtime.NumCPU()), scale)
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.scratch)

	if *aa {
		return e.runAA(*seed, *seconds, stdout, stderr)
	}

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
		if *trace == "" {
			*trace = "0"
		}
	}
	rep := report{Header: e.header(*seed, *seconds)}
	code := 0
	for _, w := range selected {
		var wr workloadReport
		if *trace != "1" {
			if wr.EndToEnd, err = e.measureE2E(w, *seed, e.timedRequests(w, *seconds)); err != nil {
				return fail(err)
			}
			rep.Header.Streams[w.name] = wr.EndToEnd.StreamHash
			if wr.EndToEnd.Failed > 0 {
				fmt.Fprintf(stderr, "benchmark: %s: %d of %d requests failed: %s\n", w.name, wr.EndToEnd.Failed, wr.EndToEnd.Attempted, wr.EndToEnd.Failure)
				code = 1
			}
		}
		if *trace != "0" {
			if wr.Layers, err = e.measureLayers(w, *seed); err != nil {
				return fail(err)
			}
			if wr.Layers.Failed > 0 {
				fmt.Fprintf(stderr, "benchmark: %s: traced run: %d requests failed: %s\n", w.name, wr.Layers.Failed, wr.Layers.Failure)
				code = 1
			}
			if rc := wr.Layers.Reconcile; rc.Required && !rc.OK {
				fmt.Fprintf(stderr, "benchmark: %s: layers add up to %.0f ns, untraced mean latency is %.0f ns (%+.1f %%, limit 10 %%)\n",
					w.name, rc.ModelNs, rc.UntracedMeanNs, rc.GapPct)
				// The suite holds the layer table to the rule. A single
				// --trace 1 run reports the gap and leaves the exit code
				// to the oracle: the driver collects numbers, and a noisy
				// minute on a shared box must not fail its job.
				if *name == "all" {
					code = 1
				}
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return fail(err)
		}
		return code
	}
	printReport(stdout, rep)
	if *name != "all" {
		// The contract's last line: one half's metrics for one workload.
		wr := rep.Workloads[0]
		line := contractLine{}
		if wr.EndToEnd != nil {
			line = contractLine{wr.EndToEnd.Failed == 0, wr.EndToEnd.Attempted, wr.EndToEnd.Failed, wr.EndToEnd.Metrics}
		} else {
			line = contractLine{wr.Layers.Failed == 0, wr.Layers.Attempted, wr.Layers.Failed, wr.Layers.Metrics}
		}
		out, err := json.Marshal(line)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", out)
	}
	return code
}

// findBenchDir locates this module's directory from the working
// directory: `go run -C benchmark .` starts the program inside it, `go
// test` too, and a binary started from the repository root finds it
// one level down.
func findBenchDir() (string, error) {
	for _, dir := range []string{".", "benchmark"} {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module gaaapi/benchmark") {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repository root or from benchmark/ (no gaaapi/benchmark go.mod here)")
}

func (e *env) timedRequests(w workload, seconds int) int {
	return e.scaled(w.perSecond * seconds)
}

func (e *env) header(seed int64, seconds int) header {
	h := header{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		PinnedCPU:  os.Getenv(pinnedEnv),
		CPUModel:   "unknown",
		Commit:     "unknown",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Seed:       seed,
		Seconds:    seconds,
		Scale:      e.scale,
		Workers:    e.workers,
		Streams:    map[string]string{},
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; "unknown" stays.
	if out, err := exec.Command("git", "-C", e.benchDir, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func printReport(w io.Writer, rep report) {
	h := rep.Header
	fmt.Fprintf(w, "# %s GOMAXPROCS=%d nproc=%d pinned_cpu=%q cpu=%q commit=%s at=%s seed=%d seconds=%d scale=%g workers=%d\n",
		h.GoVersion, h.GOMAXPROCS, h.NProc, h.PinnedCPU, h.CPUModel, h.Commit, h.Timestamp, h.Seed, h.Seconds, h.Scale, h.Workers)
	for _, wr := range rep.Workloads {
		if r := wr.EndToEnd; r != nil {
			fmt.Fprintf(w, "%s: stream %s, %d timed requests in %.2f s, %d attempted, %d correct, %d failed, %d latency samples\n",
				r.Workload, r.StreamHash, r.Requests, r.WallS, r.Attempted, r.Correct, r.Failed, r.Samples)
			printMetrics(w, r.Workload, r.Metrics)
			printMetrics(w, r.Workload+" (absolute)", r.Absolute)
		}
		if r := wr.Layers; r != nil {
			rc := r.Reconcile
			fmt.Fprintf(w, "%s: traced run of %d requests reproduces the untraced statuses; %d failed; trace in %s\n",
				r.Workload, r.Requests, r.Failed, r.TraceFile)
			fmt.Fprintf(w, "%s: layers: seams %.0f + floor %.0f + server extra %.0f + monitored %.2f × %.0f = %.0f ns; untraced mean %.0f ns; gap %+.1f %%\n",
				r.Workload, rc.SeamSelfNs, rc.FloorNs, rc.ServerExtraNs, rc.MonitoredShare, rc.MonitoredExtraNs, rc.ModelNs, rc.UntracedMeanNs, rc.GapPct)
			printMetrics(w, r.Workload, r.Metrics)
		}
	}
}

func printMetrics(w io.Writer, workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-26s %-44s %14.4f %s\n", workload, n, m[n].Value, m[n].Unit)
	}
}

// benchmarkFile is the part of BENCHMARK.json -aa needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func (e *env) benchmarkFile() (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(e.benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runAA is the A/A check: the end-to-end suite runs as two sets of
// aaRuns runs each on the same build; for every workload and metric the two
// sets' medians must agree within the metric's bound. A benchmark that
// cannot tell a build from itself cannot gate anything.
func (e *env) runAA(seed int64, seconds int, stdout, stderr io.Writer) int {
	bf, err := e.benchmarkFile()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// values[set][workload][metric] → one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for r := 0; r < aaRuns; r++ {
			for _, w := range workloads {
				res, err := e.measureE2E(w, seed+int64(r), e.timedRequests(w, seconds))
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				if res.Failed > 0 {
					fmt.Fprintf(stderr, "benchmark: %s: %d requests failed: %s\n", w.name, res.Failed, res.Failure)
					return 1
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for n, v := range res.Metrics {
					values[set][w.name][n] = append(values[set][w.name][n], v.Value)
				}
				fmt.Fprintf(stderr, "set %c run %d %s done\n", 'A'+set, r+1, w.name)
			}
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %8s %8s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	for _, w := range workloads {
		for _, em := range bf.EndToEnd {
			a, b := median(values[0][w.name][em.Name]), median(values[1][w.name][em.Name])
			diff := math.Abs(b-a) / a
			verdict := ""
			if !(diff <= em.Bound) {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-16s %14.4f %14.4f %7.2f%% %7.2f%%%s\n", w.name, em.Name, a, b, 100*diff, 100*em.Bound, verdict)
		}
	}
	return code
}
