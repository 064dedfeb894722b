package gaahttp

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
	"gaaapi/internal/ids"
	"gaaapi/internal/workload"
)

// The request line and the numeric parameters are borrowed from the
// pooled record and check state (DESIGN §5, "Borrowed request text"):
// what outlives a request must be a copy. The two tests below serve
// more requests through the same pools after the text was kept.

// longLine is the i-th of the later requests: a grant whose line is
// hundreds of bytes of one letter, so it overwrites a reused buffer.
func longLine(i int) workload.Request {
	q := strings.Repeat(string(rune('a'+i%26)), 200+(i*37)%700)
	target := "/index.html?" + q
	if i%5 == 0 {
		target = "/cgi-bin/search?q=" + q
	}
	return workload.Request{Method: "GET", Target: target, ClientIP: fmt.Sprintf("10.1.%d.%d", i/250, 1+i%250)}
}

// TestKeptTextOutlivesItsRequest: a seeded mix with every §7.2 class, a
// line with control bytes, CGI requests, documents and a HEAD is served
// through Stack.Server with a state directory; what the stack kept is
// rendered; then 1 000 requests with other long lines reuse the pooled
// records and check states, and every kept artifact must render the
// same: the alerts, the audit ring, the IDS reports, BadGuys, the
// netblock entries, the access log and the WAL.
func TestKeptTextOutlivesItsRequest(t *testing.T) {
	dir := t.TempDir()
	var clf bytes.Buffer
	st, err := NewStack(StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		DocRoot:       workload.DocRoot(),
		PolicyCache:   true,
		AccessLog:     &clf,
		StateDir:      dir,
		Fsync:         "always",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var reports []ids.Report
	st.Bus.OnReport(func(r ids.Report) { reports = append(reports, r) })

	head := workload.Legit(1, 3)[0]
	head.Method = "HEAD"
	control := workload.Request{Method: "GET", Target: "/index.html", ClientIP: "10.2.0.1"}
	mix := workload.Interleave(2003, workload.Legit(120, 2003), workload.AttackMix(),
		[]workload.Request{head, control, workload.Overflow("192.0.2.9", 0)})
	serve := func(r workload.Request) {
		req := r.HTTPRequest()
		if r.ClientIP == control.ClientIP {
			req.RequestURI = "/index.html?\x01\x7f\"x\\y"
		}
		st.Server.ServeHTTP(&nullResponse{header: make(http.Header)}, req)
	}
	for _, r := range mix {
		serve(r)
	}
	if err := st.Store.Sync(); err != nil {
		t.Fatal(err)
	}

	msgs, audits := st.Mailbox.Messages(), st.Audit.Records()
	kept := reports
	badGuys, entries := st.Groups.Members("BadGuys"), st.Blocks.Entries()
	render := func() map[string]string {
		return map[string]string{"alerts": fmt.Sprintf("%+v", msgs), "audit ring": fmt.Sprintf("%+v", audits),
			"IDS reports": fmt.Sprintf("%+v", kept), "BadGuys": fmt.Sprint(badGuys), "netblock": fmt.Sprintf("%+v", entries)}
	}
	before, log, wal := render(), bytes.Clone(clf.Bytes()), readTree(t, dir)
	if len(msgs) < len(workload.AttackMix())+1 || len(badGuys) < len(workload.AttackMix())+1 {
		t.Fatalf("the mix left %d alerts and %d BadGuys, want one per attack", len(msgs), len(badGuys))
	}
	for _, m := range msgs {
		if !strings.Contains(m.Body, "uri=") {
			t.Fatalf("alert %q quotes no request line", m.Body)
		}
	}

	for i := 0; i < 1000; i++ {
		serve(longLine(i))
	}
	if err := st.Store.Sync(); err != nil {
		t.Fatal(err)
	}
	for name, now := range render() {
		if was := before[name]; now != was {
			i := 0
			for i < len(was) && i < len(now) && was[i] == now[i] {
				i++
			}
			t.Errorf("%s changed under later requests at byte %d: %.60q became %.60q", name, i, was[i:], now[i:])
		}
	}
	if !bytes.HasPrefix(clf.Bytes(), log) {
		t.Error("the access log's earlier lines changed")
	}
	for name, b := range wal {
		if now := readTree(t, dir)[name]; !bytes.HasPrefix(now, b) {
			t.Errorf("%s: journaled bytes changed", name)
		}
	}
}

// readTree returns every regular file under dir by its path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestLateEvaluatorSeesItsOwnRequest: a dynamic evaluator that outlives
// its 1 ms deadline reads the request line and the input length only
// after later requests have rewritten the pooled record and check state;
// it must still read its own request's values.
func TestLateEvaluatorSeesItsOwnRequest(t *testing.T) {
	st, err := NewStack(StackConfig{
		SystemPolicy:     "",
		LocalPolicies:    map[string]string{"*": "pos_access_right apache *\npre_cond_late local x\n"},
		DocRoot:          map[string]string{"/index.html": "home"},
		EvaluatorTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	release := make(chan struct{})
	// One slot per request served below, so no late evaluator blocks.
	seen := make(chan [2]string, 64)
	st.API.RegisterFunc("late", "local", func(ctx context.Context, _ eacl.Condition, req *gaa.Request) gaa.Outcome {
		<-ctx.Done()
		<-release
		line, _ := req.Params.Get(gaa.ParamRequestURI, "local")
		n, _ := req.Params.Get(gaa.ParamInputLength, "local")
		seen <- [2]string{line, n}
		return gaa.MetOutcome(gaa.ClassSelector, "late")
	})

	want := map[string]string{}
	for i := 0; i < cap(seen); i++ {
		r := longLine(i)
		r.Target = strings.Replace(r.Target, "/cgi-bin/search", "/index.html", 1)
		want[r.Method+" "+r.Target] = strconv.Itoa(len(r.Target) - len("/index.html?"))
		st.Server.ServeHTTP(&nullResponse{header: make(http.Header)}, r.HTTPRequest())
	}
	close(release)
	for range cap(seen) {
		got := <-seen
		if n, ok := want[got[0]]; !ok || n != got[1] {
			t.Fatalf("a late evaluator read line %.40q… with input length %s: not a request it was given", got[0], got[1])
		}
		delete(want, got[0])
	}
}
