package experiments

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/httpd"
	"gaaapi/internal/workload"
	"gaaapi/policies/paper"
)

// E11 complements E1's per-request latency with server throughput: the
// legitimate mix is replayed by concurrent workers against (a) the
// native htaccess baseline alone and (b) the same server with the
// GAA guard in front (the paper's integration). The throughput drop is
// the capacity price of integrated detection; with notification off it
// should mirror E1's no-notification overhead.
func E11(w io.Writer, opts Options) error {
	opts = opts.Defaults()

	const workers = 8
	const perWorker = 250

	run := func(withGAA bool) (reqPerSec float64, err error) {
		st, err := gaahttp.NewStack(gaahttp.StackConfig{
			SystemPolicy:  paper.System71,
			LocalPolicies: map[string]string{"*": paper.Without(paper.Local72, "notify")},
			RuntimeValues: paperValues(),
			DocRoot:       workload.DocRoot(),
			PolicyCache:   true,
		})
		if err != nil {
			return 0, err
		}
		defer st.Close()

		var server http.Handler = st.Server
		if !withGAA {
			// The baseline configuration: same server, no GAA guard.
			server = httpd.NewServer(httpd.Config{
				DocRoot: workload.DocRoot(),
				Scripts: httpd.NewDemoRegistry(),
			})
		}

		// Per-worker request streams, prepared outside the timed region.
		streams := make([][]workload.Request, workers)
		for i := range streams {
			streams[i] = workload.Legit(perWorker, opts.Seed+int64(i))
		}

		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(stream []workload.Request) {
				defer wg.Done()
				for _, r := range stream {
					rec := httptest.NewRecorder()
					server.ServeHTTP(rec, r.HTTPRequest())
					if rec.Code != http.StatusOK {
						errCh <- fmt.Errorf("unexpected status %d for %s", rec.Code, r.Target)
						return
					}
				}
			}(streams[i])
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errCh:
			return 0, err
		default:
		}
		return float64(workers*perWorker) / elapsed.Seconds(), nil
	}

	baseline, err := run(false)
	if err != nil {
		return err
	}
	withGAA, err := run(true)
	if err != nil {
		return err
	}

	tbl := Table{
		Title:  "E11: server throughput with and without the GAA guard",
		Header: []string{"configuration", "throughput (req/s)", "relative"},
		Notes: []string{
			fmt.Sprintf("%d workers × %d legitimate requests each; notification off; policy cache on", workers, perWorker),
			fmt.Sprintf("capacity cost of integrated detection: %s", pct(100*(1-withGAA/baseline))),
		},
	}
	tbl.AddRow("htaccess baseline only", fmt.Sprintf("%.0f", baseline), "1.00x")
	tbl.AddRow("GAA guard + baseline", fmt.Sprintf("%.0f", withGAA), fmt.Sprintf("%.2fx", withGAA/baseline))
	tbl.Fprint(w)
	return nil
}
