package experiments

import (
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/httpd"
	"gaaapi/internal/workload"
	"gaaapi/policies/paper"
)

// E1 reproduces the paper's section 8 experiment: with the section 7.1
// system-wide policy and the section 7.2 local policy installed, it
// measures (a) the GAA-API functions alone and (b) the whole server
// request including them, each with and without notification, over 20
// trials, and reports the GAA share of the request time — the paper's
// "overhead" (5.9/19.4 ≈ 30% without notification, 53.3/66.8 ≈ 80%
// with).
//
// The measured request is a phf probe, the request class whose entry
// carries the notification condition (a request that does not fire it
// shows the without-notification cost by construction). Absolute
// milliseconds differ from the paper's 1.8 GHz Pentium 4; the
// notification delta and the overhead ratios are the reproduced shape.
func E1(w io.Writer, opts Options) error {
	opts = opts.Defaults()

	type cell struct {
		gaa   Stats
		total Stats
	}
	run := func(localPolicy string, latency time.Duration, async bool) (cell, error) {
		st, err := gaahttp.NewStack(gaahttp.StackConfig{
			SystemPolicy:  paper.System71,
			LocalPolicies: map[string]string{"*": localPolicy},
			RuntimeValues: paperValues(),
			DocRoot:       workload.DocRoot(),
			NotifyLatency: latency,
			AsyncNotify:   async,
		})
		if err != nil {
			return cell{}, err
		}
		defer st.Close()

		attack := workload.PhfScan("192.0.2.66")

		// (a) GAA-API functions alone: the modified check-access hook;
		// (b) the whole request through the server. Each runs once
		// untimed, so neither pays the cold work alone.
		rec := httpd.NewRequestRec(attack.HTTPRequest(), nil, time.Now())
		gaaOnly := func() {
			st.Groups.Remove("BadGuys", attack.ClientIP) // keep the scenario identical per trial
			st.Guard.Check(rec)
		}
		whole := func() {
			st.Groups.Remove("BadGuys", attack.ClientIP)
			st.Server.ServeHTTP(httptest.NewRecorder(), attack.HTTPRequest())
		}
		gaaOnly()
		whole()
		s := Measure(opts.Trials, gaaOnly, whole)
		return cell{gaa: s[0], total: s[1]}, nil
	}

	without, err := run(paper.Without(paper.Local72, "notify"), 0, false)
	if err != nil {
		return err
	}
	with, err := run(paper.Local72, opts.NotifyLatency, false)
	if err != nil {
		return err
	}
	// Extension beyond the paper: asynchronous notification delivery
	// removes the latency from the request path — the obvious fix for
	// the paper's 80% figure, quantified.
	withAsync, err := run(paper.Local72, opts.NotifyLatency, true)
	if err != nil {
		return err
	}

	tbl := Table{
		Title:  "E1: GAA-API cost per request (paper section 8)",
		Header: []string{"measurement", "without notification", "with notification", "async notification", "paper (ms)"},
		Notes: []string{
			fmt.Sprintf("%d trials per cell; synthetic notification latency %v", opts.Trials, opts.NotifyLatency),
			"paper testbed: 1.8 GHz Pentium 4, RedHat 7.1 — compare ratios, not absolute ms",
			"async notification is this reproduction's extension: delivery off the request path",
		},
	}
	tbl.AddRow("GAA-API functions (ms)", without.gaa.Millis(), with.gaa.Millis(), withAsync.gaa.Millis(), "5.9 / 53.3 / -")
	tbl.AddRow("whole request incl. GAA (ms)", without.total.Millis(), with.total.Millis(), withAsync.total.Millis(), "19.4 / 66.8 / -")
	tbl.AddRow("GAA share of request",
		pct(100*float64(without.gaa.Mean)/float64(without.total.Mean)),
		pct(100*float64(with.gaa.Mean)/float64(with.total.Mean)),
		pct(100*float64(withAsync.gaa.Mean)/float64(withAsync.total.Mean)),
		"30% / 80% / -")
	tbl.Fprint(w)
	return nil
}
