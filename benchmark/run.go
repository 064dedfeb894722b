package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// sliceResult is what one worker measured over one slice of its
// stream.
type sliceResult struct {
	slice     int
	attempted int
	correct   int
	elapsed   time.Duration
	h         hist
	failure   string // first oracle mismatch, for the error message
}

// loopResult is a closed-loop run over every worker's stream.
type loopResult struct {
	slices    [][]*sliceResult // [slice] → one result per worker that finished it
	planned   int
	attempted int
	correct   int
	wall      time.Duration
	timedOut  bool
	failure   string
}

func (r *loopResult) failed() int { return r.planned - r.correct }

// runClosedLoop drives every client through perWorker requests of its
// generator, back to back, in nslices equal slices. Each response is
// checked against the status (and, for documents, the body length) its
// request class must get. limit is the watchdog: when it expires the
// workers are told to stop, and every request not answered correctly
// by then counts as failed — a hang becomes a number, not a stuck job.
// record, when non-nil, receives worker 0's status sequence.
func runClosedLoop(clients []client, gens []*generator, perWorker, nslices int, limit time.Duration, record *[]uint16) loopResult {
	workers := len(clients)
	res := loopResult{planned: workers * perWorker, slices: make([][]*sliceResult, nslices)}
	var stop atomic.Bool
	// One send per worker per slice, so no worker ever blocks on it.
	out := make(chan *sliceResult, workers*nslices)
	start := time.Now()
	for w := 0; w < workers; w++ {
		go func(c client, g *generator, rec *[]uint16) {
			var it item
			for s := 0; s < nslices; s++ {
				n := perWorker / nslices
				if s < perWorker%nslices {
					n++
				}
				sr := &sliceResult{slice: s}
				t0 := time.Now()
				for i := 0; i < n && !stop.Load(); i++ {
					it = g.next()
					t := time.Now()
					status, blen, err := c.do(&it)
					sr.h.observe(int64(time.Since(t)))
					sr.attempted++
					switch {
					case err != nil:
						if sr.failure == "" {
							sr.failure = fmt.Sprintf("GET %s from %s: %v", it.tgt.uri, it.remote, err)
						}
					case status != it.expect:
						if sr.failure == "" {
							sr.failure = fmt.Sprintf("GET %s from %s: status %d, want %d", it.tgt.uri, it.remote, status, it.expect)
						}
					case status == 200 && it.tgt.body != "" && blen != len(it.tgt.body):
						if sr.failure == "" {
							sr.failure = fmt.Sprintf("GET %s: %d body bytes, want %d", it.tgt.uri, blen, len(it.tgt.body))
						}
					default:
						sr.correct++
					}
					if rec != nil {
						*rec = append(*rec, uint16(status))
					}
				}
				sr.elapsed = time.Since(t0)
				out <- sr
			}
		}(clients[w], gens[w], recordFor(record, w))
	}

	watchdog := time.NewTimer(limit)
	defer watchdog.Stop()
	grace := (<-chan time.Time)(nil)
	for got := 0; got < workers*nslices; {
		select {
		case sr := <-out:
			got++
			res.slices[sr.slice] = append(res.slices[sr.slice], sr)
			res.attempted += sr.attempted
			res.correct += sr.correct
			if res.failure == "" {
				res.failure = sr.failure
			}
		case <-watchdog.C:
			// Ask the workers to stop; a worker stuck inside the server
			// never answers, so wait only a moment for the rest.
			res.timedOut = true
			stop.Store(true)
			grace = time.After(2 * time.Second)
		case <-grace:
			got = workers * nslices
		}
	}
	res.wall = time.Since(start)
	if res.timedOut && res.failure == "" {
		res.failure = fmt.Sprintf("watchdog: run exceeded %v", limit)
	}
	return res
}

func recordFor(record *[]uint16, worker int) *[]uint16 {
	if worker == 0 {
		return record
	}
	return nil
}

// sliceStats reduces a run to per-slice throughput and latency and
// returns their medians across the slices every worker completed.
func (r *loopResult) sliceStats(workers int) (rps, p50us, p99us float64, samples uint64) {
	var tput, p50, p99 []float64
	for _, parts := range r.slices {
		if len(parts) != workers {
			continue // cut short by the watchdog
		}
		var merged hist
		rate := 0.0
		for _, sr := range parts {
			merged.merge(&sr.h)
			if sr.elapsed > 0 {
				rate += float64(sr.correct) / sr.elapsed.Seconds()
			}
		}
		samples += merged.n
		tput = append(tput, rate)
		p50 = append(p50, merged.quantile(0.50)/1e3)
		p99 = append(p99, merged.quantile(0.99)/1e3)
	}
	return median(tput), median(p50), median(p99), samples
}

// meanLatencyNs is the mean per-request time over the whole run.
func (r *loopResult) meanLatencyNs() float64 {
	var all hist
	for _, parts := range r.slices {
		for _, sr := range parts {
			all.n += sr.h.n
			all.sum += sr.h.sum
		}
	}
	return all.mean()
}
