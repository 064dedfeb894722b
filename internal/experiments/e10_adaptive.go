package experiments

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/ids"
	"gaaapi/internal/workload"
)

// E10 exercises the paper's adaptive constraint specification (section
// 2: condition values "can be obtained at run time ... supplied by
// other services, e.g., an IDS"; section 3: the IDS communicates
// "values for thresholds"): the CGI input bound lives in the runtime
// value store and a value tuner tightens it as the threat level rises.
// The table shows the same request sizes flipping from served to
// denied per level.
func E10(w io.Writer, opts Options) error {
	const local = `
neg_access_right apache *
pre_cond_expr local input_length>@max_input
pos_access_right apache *
`
	st, err := gaahttp.NewStack(gaahttp.StackConfig{
		LocalPolicies: map[string]string{"*": local},
		DocRoot:       workload.DocRoot(),
		RuntimeValues: map[string]string{"max_input": "1000"},
	})
	if err != nil {
		return err
	}
	defer st.Close()

	tuner := ids.NewValueTuner(st.Values)
	tuner.SetLevelValues(ids.Low, map[string]string{"max_input": "1000"})
	tuner.SetLevelValues(ids.Medium, map[string]string{"max_input": "300"})
	tuner.SetLevelValues(ids.High, map[string]string{"max_input": "50"})

	serve := func(n int) int {
		req := httptest.NewRequest("GET", "/cgi-bin/search?q="+strings.Repeat("z", n), nil)
		req.RemoteAddr = "10.0.0.5:1"
		rec := httptest.NewRecorder()
		st.Server.ServeHTTP(rec, req)
		return rec.Code
	}

	sizes := []int{40, 200, 500, 1500}
	expected := map[ids.Level][]int{
		ids.Low:    {200, 200, 200, 403},
		ids.Medium: {200, 200, 403, 403},
		ids.High:   {200, 403, 403, 403},
	}

	tbl := Table{
		Title:  "E10: adaptive constraints — input bound tightening with threat level",
		Header: []string{"threat level", "bound (@max_input)", "40 B", "200 B", "500 B", "1500 B", "expected"},
		Notes: []string{
			"the policy text never changes; only the runtime value store does (paper section 2)",
		},
	}
	mismatches := 0
	for _, level := range []ids.Level{ids.Low, ids.Medium, ids.High} {
		st.Threat.Set(level)
		tuner.Apply(level)
		bound, _ := st.Values.LookupValue("max_input")
		row := []string{level.String(), bound}
		ok := true
		for i, n := range sizes {
			code := serve(n)
			row = append(row, fmt.Sprintf("%d", code))
			if code != expected[level][i] {
				ok = false
			}
		}
		status := "ok"
		if !ok {
			status = "MISMATCH"
			mismatches++
		}
		row = append(row, status)
		tbl.AddRow(row...)
	}
	tbl.Fprint(w)

	if mismatches > 0 {
		return fmt.Errorf("E10: %d behaviour mismatches", mismatches)
	}
	return nil
}
