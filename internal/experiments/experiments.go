// Package experiments implements the reproduction experiments indexed
// in DESIGN.md section 4. E1 is the paper's section 8 performance
// table, the one table that prints timings. The rest are behaviour
// tables, pinned byte for byte by testdata/experiments/behaviour.golden:
// E2/E3 are the section 7 deployments, E6–E8 and E10 the composition,
// execution-control, anomaly and adaptive-constraint mechanisms the
// paper names, and E9 its section 10 comparison with offline log
// analysis. The ids e4, e5 and e11 are retired timing tables and stay
// unused.
//
// Each experiment is a function from Options to a printed Table;
// cmd/gaa-bench runs them. The section 7 deployments read the
// shipped policies of policies/paper.
package experiments

import (
	"fmt"
	"io"
	"time"
)

// Options tunes experiment execution.
type Options struct {
	// Trials is the number of measurement repetitions (paper protocol:
	// 20).
	Trials int
	// NotifyLatency is the synthetic mail-delivery latency for the
	// "with notification" configurations; zero delivers instantly. The
	// paper's testbed showed notification adding ~47 ms to both the
	// GAA-only and total times, gaa-bench's default.
	NotifyLatency time.Duration
	// Seed drives the deterministic workload generators.
	Seed int64
}

// Defaults fills a zero trial count and seed.
func (o Options) Defaults() Options {
	if o.Trials <= 0 {
		o.Trials = 20
	}
	if o.Seed == 0 {
		o.Seed = 2003
	}
	return o
}

// Runner is one experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(w io.Writer, opts Options) error
}

// All returns every experiment in index order.
func All() []Runner {
	return []Runner{
		{"e1", "Paper section 8: GAA-API overhead", E1},
		{"e2", "Paper section 7.1: network lockdown behaviour", E2},
		{"e3", "Paper section 7.2: application-level intrusion detection", E3},
		{"e6", "Paper section 2.1: composition modes", E6},
		{"e7", "Execution control: mid-condition quotas", E7},
		{"e8", "Anomaly detection (paper section 9 future work)", E8},
		{"e9", "Online vs offline detection (paper section 10 related work)", E9},
		{"e10", "Adaptive constraints: runtime values tuned by threat level", E10},
	}
}

// Find returns the runner with the given id.
func Find(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// paperValues seeds the one runtime value the shipped section 7.2
// local policy reads: @max_input, the paper's 1000-character bound on
// CGI input.
func paperValues() map[string]string {
	return map[string]string{"max_input": "1000"}
}

// pct renders a percentage with one decimal.
func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", v)
}
