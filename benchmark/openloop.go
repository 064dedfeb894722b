package main

import (
	"fmt"
	"sync"
	"time"
)

// The open-loop pass: browse's stream offered to gaa-httpd over two
// loopback connections on a fixed arrival schedule, at three rates.
// Every request is timed from the moment it was due, so a stall is
// charged to each request that had to wait behind it (no coordinated
// omission). On a shared two-core box these figures move by half
// between identical runs; they inform and are not gated.
var openLoopRates = []int{2000, 4000, 6000}

const (
	openLoopDuration = 1500 * time.Millisecond
	openLoopWarmup   = 2000
	// The service-level objective the highest-rate figure is judged
	// against: p99 from due time, and a send queue that is not growing.
	openLoopSLO = 5 * time.Millisecond
)

type openLoopResult struct {
	latency hist // completion − due
	late    hist // send − due: how late the generator ran
	// lateTail is the send lateness over the last fifth of the
	// schedule; a backlog that grows shows up here first.
	lateTail hist
	failed   int
	failure  string
}

// runOpenLoop offers n requests at rate per second across the clients;
// client k sends requests k, k+len(clients), ... of the schedule.
func runOpenLoop(clients []client, gens []*generator, rate, n int) openLoopResult {
	interval := time.Second / time.Duration(rate)
	workers := len(clients)
	parts := make([]openLoopResult, workers)
	var wg sync.WaitGroup
	t0 := time.Now().Add(5 * time.Millisecond)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r := &parts[k]
			var it item
			for i := k; i < n; i += workers {
				due := t0.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late := int64(time.Since(due))
				r.late.observe(late)
				if i >= n-n/5 {
					r.lateTail.observe(late)
				}
				it = gens[k].next()
				status, _, err := clients[k].do(&it)
				r.latency.observe(int64(time.Since(due)))
				if err != nil || status != it.expect {
					r.failed++
					if r.failure == "" {
						r.failure = fmt.Sprintf("GET %s: status %d err %v, want %d", it.tgt.uri, status, err, it.expect)
					}
				}
			}
		}(k)
	}
	wg.Wait()
	var out openLoopResult
	for i := range parts {
		out.latency.merge(&parts[i].latency)
		out.late.merge(&parts[i].late)
		out.lateTail.merge(&parts[i].lateTail)
		out.failed += parts[i].failed
		if out.failure == "" {
			out.failure = parts[i].failure
		}
	}
	return out
}

// measureOpenLoop starts gaa-httpd, warms it, and records the
// gaa-httpd.open_* and loadgen.* metrics.
func (e *env) measureOpenLoop(seed int64, m layerSet) error {
	bin, err := e.httpd()
	if err != nil {
		return err
	}
	d, err := deployHTTPD(bin, e.scratch)
	if err != nil {
		return err
	}
	defer d.close()
	clients := make([]client, e.workers)
	gens := make([]*generator, e.workers)
	for k := range clients {
		clients[k] = d.client(k)
		gens[k] = newGenerator(streamBrowse, seed, k, 0)
	}
	defer closeAll(clients)
	warm := runClosedLoop(clients, gens, e.scaled(openLoopWarmup)/e.workers+1, 1, runLimit, nil)
	if warm.failed() > 0 {
		return fmt.Errorf("warm-up: %s", warm.failure)
	}
	maxInSLO := 0.0
	var late hist
	for _, rate := range openLoopRates {
		n := e.scaled(int(float64(rate) * openLoopDuration.Seconds()))
		r := runOpenLoop(clients, gens, rate, n)
		if r.failed > 0 {
			return fmt.Errorf("rate %d: %d of %d failed: %s", rate, r.failed, n, r.failure)
		}
		m[fmt.Sprintf("gaa-httpd.open_p50_us.r%d", rate)] = metric{r.latency.quantile(0.50) / 1e3, "us"}
		m[fmt.Sprintf("gaa-httpd.open_p99_us.r%d", rate)] = metric{r.latency.quantile(0.99) / 1e3, "us"}
		backlog := r.lateTail.quantile(0.50) > float64(openLoopSLO)
		if r.latency.quantile(0.99) <= float64(openLoopSLO) && !backlog {
			maxInSLO = float64(rate)
		}
		late.merge(&r.late)
	}
	m["gaa-httpd.max_rate_in_slo_rps"] = metric{maxInSLO, "1/s"}
	m["loadgen.late_p99_us"] = metric{late.quantile(0.99) / 1e3, "us"}
	return nil
}
