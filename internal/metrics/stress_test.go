package metrics

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStressConcurrentCollect hammers one registry from 32 goroutines
// — concurrent Inc/Add/Observe/Set interleaved with exposition and
// Values() collection — and asserts the lock-free contract: no lost
// increments (final totals are exact) and monotonic counters (no
// collection ever observes a counter or histogram count above a later
// one... i.e. snapshots never move backwards). Run under -race in CI.
func TestStressConcurrentCollect(t *testing.T) {
	const (
		workers = 32
		iters   = 5000
	)
	r := NewRegistry()
	c := r.Counter("stress_total", "s")
	// Deliberately unsorted registration order (as map iteration in the
	// wiring layers produces): collection must not re-sort the shared
	// series slice outside the registry lock.
	labeled := make([]*Counter, 3)
	for i, v := range []string{"c", "a", "b"} {
		labeled[i] = r.Counter("stress_labeled_total", "s", L("k", v))
	}
	h := r.Histogram("stress_seconds", "s", []float64{1e-6, 1e-3, 1})
	var gauge atomic.Int64
	r.GaugeFunc("stress_gauge", "s", func() float64 { return float64(gauge.Load()) })
	var fnHits atomic.Uint64
	r.CounterFunc("stress_fn_total", "s", fnHits.Load)

	var writers, collectors sync.WaitGroup
	stop := make(chan struct{})

	// Collector goroutines: render and snapshot while writers run,
	// checking that every successive observation of each monotonic
	// series is non-decreasing.
	collectErr := make(chan error, 4)
	for i := 0; i < 4; i++ {
		collectors.Add(1)
		go func() {
			defer collectors.Done()
			lastTotal, lastHistCount := uint64(0), float64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.WritePrometheus(io.Discard); err != nil {
					collectErr <- err
					return
				}
				if v := c.Value(); v < lastTotal {
					t.Errorf("counter moved backwards: %d -> %d", lastTotal, v)
					return
				} else {
					lastTotal = v
				}
				if v := r.Values()["stress_seconds_count"]; v < lastHistCount {
					t.Errorf("histogram count moved backwards: %v -> %v", lastHistCount, v)
					return
				} else {
					lastHistCount = v
				}
			}
		}()
	}

	// Writer goroutines.
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				labeled[i%3].Inc()
				labeled[i%3].Inc()
				h.Observe(float64(i%7) * 1e-4)
				gauge.Store(int64(w))
				fnHits.Add(1)
			}
		}(w)
	}

	writers.Wait()
	close(stop)
	collectors.Wait()

	select {
	case err := <-collectErr:
		t.Fatal(err)
	default:
	}

	if got := c.Value(); got != workers*iters {
		t.Errorf("lost increments: stress_total = %d, want %d", got, workers*iters)
	}
	var labeledTotal uint64
	for _, lc := range labeled {
		labeledTotal += lc.Value()
	}
	if want := uint64(workers * iters * 2); labeledTotal != want {
		t.Errorf("lost labeled increments: %d, want %d", labeledTotal, want)
	}
	snap := h.Snapshot()
	if snap.Count != workers*iters {
		t.Errorf("lost observations: count = %d, want %d", snap.Count, workers*iters)
	}
	var bucketSum uint64
	for _, n := range snap.Counts {
		bucketSum += n
	}
	if bucketSum != snap.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, snap.Count)
	}
	if got := fnHits.Load(); got != workers*iters {
		t.Errorf("func counter = %d, want %d", got, workers*iters)
	}

	// The final exposition must parse cleanly and satisfy histogram
	// invariants after the storm.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckHistogramInvariants(fams["stress_seconds"]); err != nil {
		t.Error(err)
	}
}

// TestConcurrentCollectUnsortedRegistration is a regression test for a
// data race: collection used to sort the shared per-family series slice
// in place after releasing the registry lock, so two simultaneous
// scrapes of a family registered in non-sorted label order (exactly
// what gaa.WithMetrics produces by iterating a map) performed
// concurrent swaps on the same backing array. Run under -race.
func TestConcurrentCollectUnsortedRegistration(t *testing.T) {
	// The race window was the FIRST scrape of a freshly-registered
	// unsorted family (one sort pass later, the slice is sorted and
	// concurrent sorts stop swapping), so each round builds a new
	// registry and releases all scrapers through a barrier at once.
	// Each scraper performs exactly ONE collection: a second collection
	// in the same goroutine would re-acquire the registry lock after the
	// buggy out-of-lock sort and publish its writes to every later
	// acquirer, hiding the race from the detector's happens-before graph.
	var r *Registry
	for round := 0; round < 50; round++ {
		r = NewRegistry()
		for _, v := range []string{"zeta", "mid", "alpha", "omega", "beta"} {
			r.Counter("unsorted_total", "s", L("k", v)).Inc()
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				if i%2 == 0 {
					if err := r.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
					}
				} else {
					r.Values()
				}
			}(i)
		}
		close(start)
		wg.Wait()
	}

	// Exposition must come out sorted by label signature with no series
	// duplicated or lost by the concurrent scrapes.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "unsorted_total{") {
			got = append(got, line)
		}
	}
	want := []string{
		`unsorted_total{k="alpha"} 1`,
		`unsorted_total{k="beta"} 1`,
		`unsorted_total{k="mid"} 1`,
		`unsorted_total{k="omega"} 1`,
		`unsorted_total{k="zeta"} 1`,
	}
	if len(got) != len(want) {
		t.Fatalf("series lines = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}
