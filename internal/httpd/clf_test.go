package httpd

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gaaapi/internal/gaa"
)

// sprintfCLF is the expression FormatCLF was before AppendCLF existed;
// the access log must stay byte-identical to it.
func sprintfCLF(rec *RequestRec, status, bytes int) string {
	user := rec.User
	if user == "" {
		user = "-"
	}
	size := "-"
	if bytes > 0 {
		size = strconv.Itoa(bytes)
	}
	return fmt.Sprintf("%s - %s [%s] %q %d %s",
		rec.ClientIP, user, rec.Time.Format("02/Jan/2006:15:04:05 -0700"), rec.URI, status, size)
}

func TestAppendCLFMatchesSprintf(t *testing.T) {
	utc := time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC)
	west := time.Date(2003, 1, 2, 3, 4, 5, 999, time.FixedZone("PST", -8*3600))
	east := time.Date(2026, 12, 31, 23, 59, 59, 0, time.FixedZone("", 5*3600+30*60))
	uris := []string{
		"GET /index.html",
		"GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd",
		`GET /a"b`,
		`GET /a\b\\c`,
		"GET /tab\there\x00nul\x7fdel\r\n",
		"GET /bad\xff\xfeutf8\xc3",
		"GET /café/日本語/\U0001f600",
		"GET /\u2028line-sep\u00a0nbsp\u0085nel\ufeffbom",
		"",
		"POST /" + strings.Repeat("A", 1200),
	}
	for _, when := range []time.Time{utc, west, east} {
		for _, uri := range uris {
			for _, user := range []string{"", "alice", "bob smith"} {
				for _, size := range []int{0, -1, 7, 123456} {
					rec := &RequestRec{Time: when, URI: uri, ClientIP: "10.0.0.1", User: user}
					want := sprintfCLF(rec, 403, size)
					if got := FormatCLF(rec, 403, size); got != want {
						t.Errorf("FormatCLF = %q\n       want %q", got, want)
					}
					prefix := []byte("kept|")
					if got := string(AppendCLF(prefix, rec, 403, size)); got != "kept|"+want {
						t.Errorf("AppendCLF = %q\n      want %q", got, "kept|"+want)
					}
				}
			}
		}
	}
}

// TestLogCLFOneWrite: the writer sees each line, newline included, in a
// single Write — concurrent requests sharing an O_APPEND file or a pipe
// cannot interleave within a line.
func TestLogCLFOneWrite(t *testing.T) {
	var writes []string
	s := NewServer(Config{AccessLog: writerFunc(func(p []byte) (int, error) {
		writes = append(writes, string(p))
		return len(p), nil
	})})
	rec := &RequestRec{Time: time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC), URI: "GET /index.html", ClientIP: "10.0.0.1"}
	s.logCLF(rec, 200, 20)
	s.logCLF(rec, 404, 0)
	want := []string{sprintfCLF(rec, 200, 20) + "\n", sprintfCLF(rec, 404, 0) + "\n"}
	if len(writes) != 2 || writes[0] != want[0] || writes[1] != want[1] {
		t.Errorf("writes = %q, want %q", writes, want)
	}
}

// TestLogCLFTimestampCacheIsInvisible: the server renders the CLF
// timestamp once per second and zone; every line must still be the one
// sprintfCLF renders, whatever order the clock hands seconds out in.
func TestLogCLFTimestampCacheIsInvisible(t *testing.T) {
	var got []string
	s := NewServer(Config{AccessLog: writerFunc(func(p []byte) (int, error) {
		got = append(got, string(p))
		return len(p), nil
	})})
	base := time.Date(2003, 5, 19, 23, 59, 58, 0, time.UTC)
	pst := time.FixedZone("PST", -8*3600)
	ist := time.FixedZone("", 5*3600+30*60)
	times := []time.Time{
		base, base.Add(300 * time.Millisecond), // two lines in one second
		base.Add(999 * time.Millisecond), base.Add(time.Second), // a second boundary
		base.Add(2 * time.Second), // midnight: the date rolls too
		base.Add(time.Second),     // the clock steps back, as SimClock campaigns do
		base.Add(-time.Hour),
		base.In(pst), base.In(ist), base.In(pst), base.In(ist), // two zones alternating in one instant
		base.In(pst).Add(time.Second), base,
		{}, // the zero time
	}
	var want []string
	for i, when := range times {
		rec := &RequestRec{Time: when, URI: "GET /index.html", ClientIP: "10.0.0.1"}
		s.logCLF(rec, 200, i)
		want = append(want, sprintfCLF(rec, 200, i)+"\n")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q\n    want %q", i, got[i], want[i])
		}
	}
}

// TestLogCLFConcurrentClocks: 8 goroutines log through one server with
// clocks a second apart and in different zones, so the cached timestamp
// is replaced under their feet; each line must carry its own request's
// time. Run with -race in CI.
func TestLogCLFConcurrentClocks(t *testing.T) {
	var (
		mu    sync.Mutex
		lines = make(map[string]int)
	)
	s := NewServer(Config{AccessLog: writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		lines[string(p)]++
		mu.Unlock()
		return len(p), nil
	})})
	base := time.Date(2026, 10, 1, 8, 0, 0, 0, time.UTC)
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			when := base.Add(time.Duration(w/2) * time.Second).In(time.FixedZone("", (w%2)*3600))
			rec := &RequestRec{Time: when, URI: "GET /w" + strconv.Itoa(w), ClientIP: "10.0.0.1"}
			for i := 0; i < rounds; i++ {
				s.logCLF(rec, 200, 1)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		when := base.Add(time.Duration(w/2) * time.Second).In(time.FixedZone("", (w%2)*3600))
		rec := &RequestRec{Time: when, URI: "GET /w" + strconv.Itoa(w), ClientIP: "10.0.0.1"}
		if n := lines[sprintfCLF(rec, 200, 1)+"\n"]; n != rounds {
			t.Errorf("worker %d: %d of %d lines carry its own timestamp", w, n, rounds)
		}
	}
}

// TestServedCLFQuotesEachLine serves, through one Server and so one
// pooled RequestRec, plain request lines and lines strconv.Quote
// escapes, alternately: each access-log line quotes its own line as
// gaa.AppendQuoted does. A plain answer kept from an earlier request
// would write the raw control byte into the log logscan reads back.
func TestServedCLFQuotesEachLine(t *testing.T) {
	var log strings.Builder
	s := NewServer(Config{AccessLog: &log})
	const escaped = "/a\"b\\c\x01d/é"
	for _, target := range []string{"/index.html", escaped, "/index.html", escaped} {
		log.Reset()
		r := httptest.NewRequest("GET", "/", nil)
		r.RequestURI = target
		s.ServeHTTP(httptest.NewRecorder(), r)
		want := "] " + string(gaa.AppendQuoted(nil, "GET "+target)) + " "
		if !strings.Contains(log.String(), want) {
			t.Errorf("access log %q, want it to hold %q", log.String(), want)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestLogCLFZeroAlloc pins the access-log line at no allocation per
// request into a discarding writer, and FormatCLF at its one string.
func TestLogCLFZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops 1 in 4 Puts under race; pooled paths allocate by design there")
	}
	s := NewServer(Config{AccessLog: io.Discard})
	rec := &RequestRec{
		Time:     time.Date(2003, 5, 19, 12, 0, 0, 0, time.FixedZone("", -7*3600)),
		URI:      "GET /docs/guide.html?q=1",
		ClientIP: "10.0.0.1",
		User:     "alice",
	}
	if allocs := testing.AllocsPerRun(200, func() { s.logCLF(rec, 200, 5) }); allocs != 0 {
		t.Errorf("logCLF allocates %v per line, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = FormatCLF(rec, 200, 5) }); allocs > 1 {
		t.Errorf("FormatCLF allocates %v per line, want 1", allocs)
	}
}
