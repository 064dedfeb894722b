package experiments

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/workload"
)

// E7 exercises the execution-control phase (the paper's section 6 step
// 3, its unfinished future work): a runaway CGI script under a CPU
// quota must be killed, an output hog under an output quota likewise,
// and a well-behaved script under both quotas must complete.
func E7(w io.Writer, opts Options) error {
	st, err := gaahttp.NewStack(gaahttp.StackConfig{
		LocalPolicies: map[string]string{"*": `
pos_access_right apache *
mid_cond_quota local cpu_ms<=50
mid_cond_quota local output_bytes<=65536
`},
		DocRoot: workload.DocRoot(),
	})
	if err != nil {
		return err
	}
	defer st.Close()

	tbl := Table{
		Title:  "E7: execution control (mid-condition quotas)",
		Header: []string{"scenario", "HTTP status", "outcome"},
		Notes: []string{
			"quota policy: cpu_ms<=50, output_bytes<=65536",
			"spin = runaway CPU consumer; bigout = 1 MiB writer; search = well-behaved",
		},
	}

	scenarios := []struct {
		name, target string
		want         int
		pass, fail   string
	}{
		{"spin under quota", "/cgi-bin/spin", http.StatusInternalServerError, "aborted", "NOT ABORTED"},
		{"bigout under quota", "/cgi-bin/bigout", http.StatusInternalServerError, "aborted", "NOT ABORTED"},
		{"search under quota", "/cgi-bin/search?q=ok", http.StatusOK, "completed", "FAILED"},
	}
	failures := 0
	for _, sc := range scenarios {
		req := httptest.NewRequest("GET", sc.target, nil)
		req.RemoteAddr = "10.0.0.1:40000"
		rec := httptest.NewRecorder()
		st.Server.ServeHTTP(rec, req)
		outcome := sc.pass
		if rec.Code != sc.want {
			outcome = sc.fail
			failures++
		}
		tbl.AddRow(sc.name, fmt.Sprintf("%d", rec.Code), outcome)
	}
	tbl.Fprint(w)

	if failures > 0 {
		return fmt.Errorf("E7: %d scenario failures", failures)
	}
	return nil
}
