package experiments

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/workload"
)

// E7 exercises the execution-control phase (the paper's section 6 step
// 3, its unfinished future work): a runaway CGI script under a CPU
// quota must be killed promptly, an output hog under an output quota
// likewise, and the monitoring overhead on well-behaved scripts must
// stay small.
func E7(w io.Writer, opts Options) error {
	opts = opts.Defaults()

	newStack := func(policy string) (*gaahttp.Stack, error) {
		return gaahttp.NewStack(gaahttp.StackConfig{
			LocalPolicies: map[string]string{"*": policy},
			DocRoot:       workload.DocRoot(),
		})
	}

	const quotaPolicy = `
pos_access_right apache *
mid_cond_quota local cpu_ms<=50
mid_cond_quota local output_bytes<=65536
`
	const plainPolicy = "pos_access_right apache *\n"

	guarded, err := newStack(quotaPolicy)
	if err != nil {
		return err
	}
	defer guarded.Close()
	plain, err := newStack(plainPolicy)
	if err != nil {
		return err
	}
	defer plain.Close()

	serve := func(st *gaahttp.Stack, target string) (int, time.Duration) {
		req := httptest.NewRequest("GET", target, nil)
		req.RemoteAddr = "10.0.0.1:40000"
		rec := httptest.NewRecorder()
		start := time.Now()
		st.Server.ServeHTTP(rec, req)
		return rec.Code, time.Since(start)
	}

	tbl := Table{
		Title:  "E7: execution control (mid-condition quotas)",
		Header: []string{"scenario", "HTTP status", "outcome", "wall time"},
		Notes: []string{
			"quota policy: cpu_ms<=50, output_bytes<=65536",
			"spin = runaway CPU consumer; bigout = 1 MiB writer; search = well-behaved",
		},
	}

	failures := 0
	// Runaway CPU: must be aborted (500), and promptly.
	code, killLatency := serve(guarded, "/cgi-bin/spin")
	outcome := "aborted"
	if code != http.StatusInternalServerError {
		outcome = "NOT ABORTED"
		failures++
	}
	tbl.AddRow("spin under quota", fmt.Sprintf("%d", code), outcome, killLatency.Round(time.Millisecond).String())

	// Output hog: aborted by the output quota.
	code, d := serve(guarded, "/cgi-bin/bigout")
	outcome = "aborted"
	if code != http.StatusInternalServerError {
		outcome = "NOT ABORTED"
		failures++
	}
	tbl.AddRow("bigout under quota", fmt.Sprintf("%d", code), outcome, d.Round(time.Millisecond).String())

	// Well-behaved script under quota: unaffected.
	code, d = serve(guarded, "/cgi-bin/search?q=ok")
	outcome = "completed"
	if code != http.StatusOK {
		outcome = "FAILED"
		failures++
	}
	tbl.AddRow("search under quota", fmt.Sprintf("%d", code), outcome, d.Round(time.Microsecond).String())
	tbl.Fprint(w)

	// Monitoring overhead on well-behaved requests.
	const perBatch = 50
	measure := func(st *gaahttp.Stack) Stats {
		return Measure(opts.Trials, func() {
			for i := 0; i < perBatch; i++ {
				if code, _ := serve(st, "/cgi-bin/search?q=ok"); code != http.StatusOK {
					panic(fmt.Sprintf("unexpected status %d", code))
				}
			}
		})
	}
	withQuota := measure(guarded)
	without := measure(plain)
	ovTbl := Table{
		Title:  "E7b: monitoring overhead on well-behaved scripts",
		Header: []string{"configuration", "per request (µs)"},
		Notes: []string{fmt.Sprintf("%d trials of %d-request batches; overhead %s",
			opts.Trials, perBatch, pct(Overhead(without.Mean, withQuota.Mean)))},
	}
	perReq := func(s Stats) string {
		return fmt.Sprintf("%.1f", float64(s.Mean)/perBatch/float64(time.Microsecond))
	}
	ovTbl.AddRow("no mid-conditions", perReq(without))
	ovTbl.AddRow("cpu+output quotas", perReq(withQuota))
	ovTbl.Fprint(w)

	if failures > 0 {
		return fmt.Errorf("E7: %d scenario failures", failures)
	}
	return nil
}
