// Command gaa-bench regenerates every experiment table indexed in
// DESIGN.md section 4 (E1 is the paper's section 8 performance table;
// E2/E3 are the section 7 deployments; E4-E8 are ablations).
//
// Usage:
//
//	gaa-bench                 # run every experiment
//	gaa-bench -run e1,e3      # run a subset
//	gaa-bench -trials 20      # the paper's trial count (default)
//	gaa-bench -notify 47ms    # synthetic notification latency
//	gaa-bench -drill          # fault drill: seeded evaluator/notifier
//	                          # fault injection; non-zero exit on crash
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gaaapi/internal/experiments"
	"gaaapi/internal/faults"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gaa-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gaa-bench", flag.ContinueOnError)
	var (
		runList = fs.String("run", "", "comma-separated experiment ids (e1..e11); empty = all")
		trials  = fs.Int("trials", 20, "measurement trials per cell (paper protocol: 20)")
		notify  = fs.Duration("notify", 47*time.Millisecond, "synthetic notification latency")
		seed    = fs.Int64("seed", 2003, "workload seed")
		list    = fs.Bool("list", false, "list experiments and exit")

		drill       = fs.Bool("drill", false, "run a fault drill (seeded fault injection over the section 7.2 deployment) instead of the experiment tables")
		drillN      = fs.Int("drill-requests", 400, "with -drill: legitimate-workload size")
		faultEval   = fs.String("fault-evaluators", "hang=0.02,panic=0.05,error=0.08,latency=0.1:2ms", "with -drill: evaluator fault injection spec")
		faultNotify = fs.String("fault-notifier", "error=0.3,latency=0.3:5ms", "with -drill: notifier fault injection spec")
		faultDisk   = fs.String("fault-disk", "", `with -drill: state-store disk fault spec, e.g. "disk=0.05" (short writes + fsync errors over a temp -state-dir)`)
		evalTimeout = fs.Duration("evaluator-timeout", 25*time.Millisecond, "with -drill: per-evaluator deadline cutting off injected hangs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiments.Options{Trials: *trials, NotifyLatency: *notify, Seed: *seed}

	if *drill {
		evalSpec, err := faults.ParseSpec(*faultEval)
		if err != nil {
			return fmt.Errorf("-fault-evaluators: %w", err)
		}
		notifySpec, err := faults.ParseSpec(*faultNotify)
		if err != nil {
			return fmt.Errorf("-fault-notifier: %w", err)
		}
		diskSpec, err := faults.ParseSpec(*faultDisk)
		if err != nil {
			return fmt.Errorf("-fault-disk: %w", err)
		}
		do := experiments.FaultDrillOptions{
			Requests:   *drillN,
			Seed:       *seed,
			EvalSpec:   evalSpec,
			NotifySpec: notifySpec,
			DiskSpec:   diskSpec,
			Timeout:    *evalTimeout,
		}
		if diskSpec.Active() {
			dir, err := os.MkdirTemp("", "gaa-drill-state-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			do.StateDir = dir
		}
		return experiments.FaultDrill(out, do)
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(out, "%-4s %s\n", r.ID, r.Title)
		}
		return nil
	}

	var runners []experiments.Runner
	if *runList == "" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			r, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			runners = append(runners, r)
		}
	}

	failed := 0
	for _, r := range runners {
		fmt.Fprintf(out, "--- %s: %s ---\n\n", r.ID, r.Title)
		if err := r.Run(out, opts); err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", r.ID, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}
