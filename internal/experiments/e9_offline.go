package experiments

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"

	"gaaapi/internal/gaahttp"
	"gaaapi/internal/httpd"
	"gaaapi/internal/ids"
	"gaaapi/internal/logscan"
	"gaaapi/internal/workload"
	"gaaapi/policies/paper"
)

// E9 reproduces the paper's section 10 argument against offline log
// analysis (Almgren et al.): the same attack workload is replayed
// against (a) an unprotected server whose CLF log is scanned offline
// afterwards, and (b) the GAA-protected server. Both detect every
// attack; the difference is the damage window — offline detection sees
// the attacks only after the vulnerable scripts have executed ("the
// monitor can not directly interact with a web server and, thus, can
// not stop the ongoing attacks"), while the integrated approach blocks
// them before execution.
func E9(w io.Writer, opts Options) error {
	opts = opts.Defaults()
	attacks := workload.AttackMix()

	// (a) Unprotected server, offline scan of its access log.
	var clf strings.Builder
	naked := httpd.NewServer(httpd.Config{
		DocRoot:   workload.DocRoot(),
		Scripts:   httpd.NewDemoRegistry(),
		AccessLog: &clf,
	})
	leaked := 0
	for _, atk := range attacks {
		rec := httptest.NewRecorder()
		naked.ServeHTTP(rec, atk.HTTPRequest())
		if strings.Contains(rec.Body.String(), "root:x:0:0") {
			leaked++ // the phf exploit actually disclosed data
		}
	}
	scanner := logscan.NewScanner(ids.NewDB(ids.DefaultSignatures()...))
	findings, _, _, err := scanner.Scan(strings.NewReader(clf.String()))
	if err != nil {
		return err
	}
	offlineDetected := make(map[string]bool)
	offlineExecuted := 0
	for _, f := range findings {
		offlineDetected[f.Signature.Name] = true
		if f.Executed {
			offlineExecuted++
		}
	}

	// (b) GAA-protected server.
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
	onlineBlocked, onlineLeaked := 0, 0
	for _, atk := range attacks {
		rec := httptest.NewRecorder()
		st.Server.ServeHTTP(rec, atk.HTTPRequest())
		if rec.Code == 403 {
			onlineBlocked++
		}
		if strings.Contains(rec.Body.String(), "root:x:0:0") {
			onlineLeaked++
		}
	}

	tbl := Table{
		Title:  "E9: online (GAA) vs offline (CLF scan) detection (paper section 10)",
		Header: []string{"approach", "attacks detected", "executed before detection", "data leaked"},
		Notes: []string{
			fmt.Sprintf("workload: %d attack requests (one per class) against the vulnerable CGI set", len(attacks)),
			"offline = Almgren-style signature scan over the access log after the fact",
			"paper: the offline monitor \"can not stop the ongoing attacks\"; the integration blocks them pre-execution",
		},
	}
	tbl.AddRow("offline log scan",
		fmt.Sprintf("%d/%d classes", len(offlineDetected), len(attacks)),
		fmt.Sprintf("%d", offlineExecuted),
		fmt.Sprintf("%d request(s)", leaked))
	tbl.AddRow("GAA-API integration",
		fmt.Sprintf("%d/%d classes", onlineBlocked, len(attacks)),
		"0",
		fmt.Sprintf("%d request(s)", onlineLeaked))
	tbl.Fprint(w)

	if onlineLeaked != 0 || onlineBlocked != len(attacks) {
		return fmt.Errorf("E9: online protection failed (blocked %d, leaked %d)", onlineBlocked, onlineLeaked)
	}
	if leaked == 0 {
		return fmt.Errorf("E9: substrate not vulnerable; comparison is vacuous")
	}
	return nil
}
