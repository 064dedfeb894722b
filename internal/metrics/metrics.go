// Package metrics is the zero-dependency observability substrate of
// the reproduction: lock-free sharded counters, collect-time counter
// and gauge functions, and fixed-bucket latency histograms, collected
// into a Registry that renders the Prometheus text exposition format
// (version 0.0.4).
//
// The package exists to make every prior layer's behaviour externally
// visible — per-phase evaluation latency, YES/NO/MAYBE outcome rates,
// policy-cache effectiveness, supervision faults, WAL activity, threat
// level — without perturbing the decision hot path it instruments:
// Counter.Inc and Histogram.Observe are single striped atomic adds
// (no locks, no allocation), so the PR-1 cached-grant fast path stays
// allocation-free and inside its ≤5% overhead budget.
//
// In the spirit of Third Eye's in-process Apache execution tracing
// (low-overhead instrumentation of exactly this request cycle), all
// state lives in process memory; exposition is a read-side walk over
// striped counters that never blocks a writer.
package metrics

import (
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// numStripes is the per-metric stripe count. Writers pick a stripe
// with a thread-local random draw (math/rand/v2's per-thread
// generator, no lock, no allocation), spreading concurrent increments
// over independent cache lines; readers sum the stripes. 16 stripes
// keep a 16-goroutine workload mostly collision-free.
const numStripes = 16

// stripe is one cache-line-padded counter cell.
type stripe struct {
	n atomic.Uint64
	_ [56]byte // pad to 64 bytes so stripes never share a line
}

// stripeIdx picks the stripe for this increment. rand/v2's global
// functions draw from a per-OS-thread generator, so concurrent callers
// scatter without coordination and a counter's total stays exact (the
// draw only chooses where to add, never whether).
func stripeIdx() int {
	return int(rand.Uint32() & (numStripes - 1))
}

// Counter is a monotonically increasing striped counter. The zero
// value is ready to use; all methods are safe for concurrent use.
type Counter struct {
	stripes [numStripes]stripe
}

// Inc adds one.
func (c *Counter) Inc() {
	c.stripes[stripeIdx()].n.Add(1)
}

// Value sums the stripes. Concurrent increments may or may not be
// included, but successive Values never move backwards.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.stripes {
		total += c.stripes[i].n.Load()
	}
	return total
}

// DefLatencyBuckets are the default histogram bounds for request-path
// latencies, in seconds: 1µs to 1s, the span between the PR-1 cached
// grant (~2µs) and the paper's 47ms notification tail.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1,
}

// Histogram is a fixed-bucket latency histogram with striped bucket
// counters. Bounds are in seconds, ascending; an implicit +Inf bucket
// catches the tail. Observations accumulate a nanosecond-precision sum
// so the exposition's _sum stays exact for sub-millisecond latencies.
// The set of buckets is fixed at construction: Observe is a bounds
// scan plus two striped atomic adds, nothing more.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, seconds
	stripes [numStripes]histStripe
}

type histStripe struct {
	counts   []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumNanos atomic.Uint64
	_        [48]byte
}

// NewHistogram builds a histogram over the given ascending bucket
// upper bounds (seconds). Nil or empty bounds default to
// DefLatencyBuckets. Panics if bounds are not strictly ascending.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	for i := range h.stripes {
		h.stripes[i].counts = make([]atomic.Uint64, len(bounds)+1)
	}
	return h
}

// Observe records one value in seconds.
func (h *Histogram) Observe(seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if seconds <= b {
			idx = i
			break
		}
	}
	s := &h.stripes[stripeIdx()]
	s.counts[idx].Add(1)
	s.sumNanos.Add(uint64(seconds * 1e9))
}

// ObserveDuration records one duration.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.ObserveDurationWeighted(d, 1)
}

// ObserveDurationWeighted records one duration with the given weight:
// the bucket count and _count grow by weight, the sum by weight times
// the duration. It is the sampling primitive — observing every Nth
// event with weight N keeps the histogram statistically unbiased while
// paying the clock-read cost only on sampled events.
func (h *Histogram) ObserveDurationWeighted(d time.Duration, weight uint64) {
	if weight == 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	idx := len(h.bounds)
	ns := float64(d.Nanoseconds())
	for i, b := range h.bounds {
		if ns <= b*1e9 {
			idx = i
			break
		}
	}
	s := &h.stripes[stripeIdx()]
	s.counts[idx].Add(weight)
	s.sumNanos.Add(weight * uint64(d.Nanoseconds()))
}

// Bounds returns the bucket upper bounds (seconds), excluding +Inf.
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// HistogramSnapshot is a point-in-time read of a histogram:
// non-cumulative per-bucket counts (last entry is the +Inf bucket),
// the total count, and the sum in seconds.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot sums the stripes. Each observation lands in exactly one
// bucket cell, so Count always equals the sum of Counts and successive
// snapshots never move backwards.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds: h.Bounds(),
		Counts: make([]uint64, len(h.bounds)+1),
	}
	var nanos uint64
	for i := range h.stripes {
		s := &h.stripes[i]
		for j := range s.counts {
			snap.Counts[j] += s.counts[j].Load()
		}
		nanos += s.sumNanos.Load()
	}
	for _, c := range snap.Counts {
		snap.Count += c
	}
	snap.Sum = float64(nanos) / 1e9
	return snap
}
