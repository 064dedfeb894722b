package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: 64 linear
// sub-buckets per power of two, so a bucket is at most 1.6 % wide.
// Quantiles interpolate inside the bucket by rank, so a reported
// percentile is not pinned to a bucket edge.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
}

const (
	histSub     = 64 // sub-buckets per octave
	histSubBits = 6
	histOctaves = 34 // values below 2^39 ns ≈ 9 min; larger ones clamp
	histBuckets = histOctaves * histSub
)

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 - histSubBits // ≥ 0
	idx := (exp+1)*histSub + int(ns>>uint(exp)) - histSub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns the half-open value range [lo, hi) of bucket idx.
func histBounds(idx int) (lo, hi float64) {
	if idx < histSub {
		return float64(idx), float64(idx + 1)
	}
	exp := idx/histSub - 1
	sub := idx%histSub + histSub
	return float64(uint64(sub) << uint(exp)), float64(uint64(sub+1) << uint(exp))
}

func (h *hist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// median of a small sample; the mean of the middle two when even.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}
