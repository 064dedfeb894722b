package gaahttp

import (
	"io"
	"net/http"
	"testing"
	"time"
)

// BenchmarkStackMix serves the browse workload's two legitimate request
// kinds through Stack.Handler(), on the caller's goroutine: a document
// grant, a CGI grant under mid_cond_quota, and the two interleaved 4:1.
// In the mix the collector's work is paid on the same thread as the
// requests (mark assists, write barriers), so what one kind allocates is
// partly paid by the other; the mix reports each kind's own time
// (doc-ns/req, cgi-ns/req) beside the mean. Run with -cpu 1 to match
// the benchmark's pinned CPU.
func BenchmarkStackMix(b *testing.B) {
	st, err := NewStack(StackConfig{
		SystemPolicy:  browseSystem,
		LocalPolicies: map[string]string{"*": browseLocal},
		DocRoot:       map[string]string{"/index.html": "home"},
		PolicyCache:   true,
		Metrics:       true,
		AccessLog:     io.Discard,
	})
	if err != nil {
		b.Fatalf("NewStack: %v", err)
	}
	defer st.Close()
	h := st.Handler()
	doc := newRequest("/index.html", "10.0.0.1")
	cgi := newRequest("/cgi-bin/search?q=eacl", "10.0.0.1")
	rw := &nullResponse{header: make(http.Header)}
	serve := func(b *testing.B, r *http.Request) {
		rw.code = 0
		h.ServeHTTP(rw, r)
		if rw.code != http.StatusOK {
			b.Fatalf("%s answered %d, want 200", r.URL.Path, rw.code)
		}
	}
	for _, kind := range []struct {
		name string
		req  *http.Request
	}{{"document", doc}, {"cgi", cgi}} {
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serve(b, kind.req)
			}
		})
	}
	b.Run("mix4to1", func(b *testing.B) {
		b.ReportAllocs()
		var docNs, cgiNs time.Duration
		var docs, cgis int
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if i%5 == 4 {
				serve(b, cgi)
				cgiNs += time.Since(start)
				cgis++
			} else {
				serve(b, doc)
				docNs += time.Since(start)
				docs++
			}
		}
		if docs > 0 {
			b.ReportMetric(float64(docNs)/float64(docs), "doc-ns/req")
		}
		if cgis > 0 {
			b.ReportMetric(float64(cgiNs)/float64(cgis), "cgi-ns/req")
		}
	})
}
