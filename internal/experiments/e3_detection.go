package experiments

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/workload"
	"gaaapi/policies/paper"
)

// E3 reproduces the paper's section 7.2 deployment as a measured
// detection table: each attack class must be denied before execution,
// blacklist its source, and (for the notification entries) alert the
// administrator; a follow-up probe with an unknown signature from a
// blacklisted source must also be denied ("subsequent requests from
// that host, checking for vulnerabilities we might not yet know about,
// can still be blocked"); and legitimate traffic must flow with zero
// false positives.
func E3(w io.Writer, opts Options) error {
	opts = opts.Defaults()
	st, err := gaahttp.NewStack(gaahttp.StackConfig{
		SystemPolicy:  paper.System72,
		LocalPolicies: map[string]string{"*": paper.Local72},
		RuntimeValues: paperValues(),
		DocRoot:       workload.DocRoot(),
	})
	if err != nil {
		return err
	}
	defer st.Close()

	serve := func(r workload.Request) int {
		rec := httptest.NewRecorder()
		st.Server.ServeHTTP(rec, r.HTTPRequest())
		return rec.Code
	}

	tbl := Table{
		Title:  "E3: application-level intrusion detection (paper section 7.2)",
		Header: []string{"attack class", "blocked", "blacklisted", "notified", "follow-up blocked"},
	}

	failures := 0
	for _, atk := range workload.AttackMix() {
		before := st.Mailbox.Count()
		code := serve(atk)
		blocked := code == http.StatusForbidden
		blacklisted := st.Groups.Contains("BadGuys", atk.ClientIP)
		notified := st.Mailbox.Count() > before
		// Unknown-signature follow-up from the same source.
		followCode := serve(workload.Request{
			Method: "GET", Target: "/cgi-bin/search?q=zero-day", ClientIP: atk.ClientIP,
		})
		followBlocked := followCode == http.StatusForbidden
		if !blocked || !blacklisted || !followBlocked {
			failures++
		}
		tbl.AddRow(atk.Attack, yesNo(blocked), yesNo(blacklisted), yesNo(notified), yesNo(followBlocked))
	}

	// Legitimate traffic: false positives.
	legit := workload.Legit(200, opts.Seed)
	falsePositives := 0
	for _, r := range legit {
		if serve(r) != http.StatusOK {
			falsePositives++
		}
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("legitimate requests: %d, false positives: %d (%s)",
			len(legit), falsePositives, pct(100*float64(falsePositives)/float64(len(legit)))),
		"blacklist size after run: "+strconv.Itoa(st.Groups.Len("BadGuys")),
		"paper expectation: every class blocked before execution, sources blacklisted, unknown follow-ups blocked",
	)
	tbl.Fprint(w)
	if failures > 0 || falsePositives > 0 {
		return fmt.Errorf("E3: %d detection failures, %d false positives", failures, falsePositives)
	}
	return nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
