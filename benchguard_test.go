// Benchmark-regression guard: runs the parallel hot-path workloads at a
// small scale and fails when the cached decision paths regress more
// than 2x against the committed BENCH_parallel.json baselines. The
// small scale makes absolute numbers noisy, so the guard compares each
// scenario's best (minimum) ns/op across concurrency levels against 2x
// the baseline's best — a deliberate-regression tripwire, not a
// precision benchmark. Set GAA_SKIP_BENCH_GUARD=1 to skip (loaded CI
// machines, coverage runs).
package gaaapi

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"gaaapi/internal/experiments"
)

// benchGuardScale runs each scenario at ~1/100 of the full op count —
// comparable to `go test -benchtime=1x` smoke scale, a few thousand
// total ops.
const benchGuardScale = 0.01

// benchGuardFactor is the regression threshold: fail only when the
// cached path got more than 2x slower than the committed baseline.
const benchGuardFactor = 2.0

// benchGuardScenarios are the decision paths the guard pins — the
// cached paths plus the uncached (per-op retrieval, compiled-engine)
// paths; server-e11 runs too (via the same sweep) but is not gated:
// whole requests through the server are too noisy at smoke scale.
var benchGuardScenarios = []string{
	"guard-cached", "api-grant-cached",
	"guard-uncached", "api-grant-uncached",
}

func TestBenchGuard(t *testing.T) {
	if os.Getenv("GAA_SKIP_BENCH_GUARD") != "" {
		t.Skip("GAA_SKIP_BENCH_GUARD set")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race detector inflates hot-path timings ~5x; wall-clock guard is meaningless")
	}

	raw, err := os.ReadFile("BENCH_parallel.json")
	if err != nil {
		t.Fatalf("read baseline: %v (regenerate with: go run ./cmd/gaa-bench -parallel -json > BENCH_parallel.json)", err)
	}
	var baseline []experiments.ParallelResult
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("parse BENCH_parallel.json: %v", err)
	}

	results, err := experiments.ParallelResultsScaled(experiments.Options{}, benchGuardScale)
	if err != nil {
		t.Fatalf("run scaled sweep: %v", err)
	}

	best := func(rs []experiments.ParallelResult, scenario string) float64 {
		min := math.Inf(1)
		for _, r := range rs {
			if r.Scenario == scenario && r.NsPerOp < min {
				min = r.NsPerOp
			}
		}
		return min
	}
	for _, scenario := range benchGuardScenarios {
		base := best(baseline, scenario)
		if math.IsInf(base, 1) {
			t.Errorf("scenario %s missing from BENCH_parallel.json baseline", scenario)
			continue
		}
		got := best(results, scenario)
		if math.IsInf(got, 1) {
			t.Errorf("scenario %s missing from scaled sweep", scenario)
			continue
		}
		limit := base * benchGuardFactor
		t.Logf("%s: best %.0f ns/op (baseline %.0f, limit %.0f)", scenario, got, base, limit)
		if got > limit {
			t.Errorf("%s regressed: best %.0f ns/op > %.1fx baseline %.0f ns/op\n"+
				"if this is an accepted cost, regenerate the baseline:\n"+
				"  go run ./cmd/gaa-bench -parallel -json > BENCH_parallel.json",
				scenario, got, benchGuardFactor, base)
		}
	}
}
