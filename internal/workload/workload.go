// Package workload generates the deterministic request mixes the
// experiments replay: the legitimate traffic of a small document tree
// plus the attack classes of the paper's sections 1 and 7 (vulnerable-
// CGI scans, slash-flood DoS, NIMDA-style malformed URLs, CGI buffer
// overflows, password guessing).
package workload

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"time"

	"net/http"
)

// Request is one synthetic client request.
type Request struct {
	Method   string
	Target   string // path + query
	ClientIP string
	User     string
	Pass     string
	// Attack labels the generating attack class ("" for legitimate
	// traffic); experiments use it as ground truth.
	Attack string
	// Delay is how long the issuing client waits before sending this
	// request (simulated time in the scenario driver, real time against
	// a live target). Zero means back-to-back.
	Delay time.Duration
}

// HTTPRequest materializes the request for an httpd.Server.
func (r Request) HTTPRequest() *http.Request {
	req := httptest.NewRequest(r.Method, r.Target, nil)
	req.RemoteAddr = r.ClientIP + ":40000"
	if r.User != "" {
		req.SetBasicAuth(r.User, r.Pass)
	}
	return req
}

// legitPaths is the document tree the legitimate mix browses; it
// matches DocRoot (package workload's DocRoot helper).
var legitPaths = []string{
	"/index.html",
	"/docs/guide.html",
	"/docs/api.html",
	"/news/2003-05.html",
	"/cgi-bin/search?q=%s",
}

// legitQueries feeds the search script.
var legitQueries = []string{
	"authorization", "apache", "intrusion+detection", "gaa+api", "eacl",
}

// DocRoot returns static content matching the legitimate mix.
func DocRoot() map[string]string {
	return map[string]string{
		"/index.html":        "<html>welcome</html>",
		"/docs/guide.html":   "<html>guide</html>",
		"/docs/api.html":     "<html>api</html>",
		"/news/2003-05.html": "<html>news</html>",
	}
}

// Legit generates n legitimate requests from a pool of well-behaved
// clients, deterministically from seed.
func Legit(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		path := legitPaths[rng.Intn(len(legitPaths))]
		if strings.Contains(path, "%s") {
			path = fmt.Sprintf(path, legitQueries[rng.Intn(len(legitQueries))])
		}
		out = append(out, Request{
			Method:   "GET",
			Target:   path,
			ClientIP: fmt.Sprintf("10.0.%d.%d", rng.Intn(4), 1+rng.Intn(250)),
		})
	}
	return out
}

// LegitFrom generates n legitimate requests all originating from one
// client — the focused traffic anomaly profiles are trained on.
func LegitFrom(ip string, n int, seed int64) []Request {
	out := Legit(n, seed)
	for i := range out {
		out[i].ClientIP = ip
	}
	return out
}

// PhfScan is the classic vulnerable-CGI probe (paper section 7.2).
func PhfScan(ip string) Request {
	return Request{
		Method:   "GET",
		Target:   "/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd",
		ClientIP: ip,
		Attack:   "phf",
	}
}

// TestCGIScan probes the test-cgi information-disclosure script.
func TestCGIScan(ip string) Request {
	return Request{
		Method:   "GET",
		Target:   "/cgi-bin/test-cgi?*",
		ClientIP: ip,
		Attack:   "test-cgi",
	}
}

// SlashFlood is the paper's "well-known apache bug that slows down
// Apache and fills up logs fast": a request with a large run of '/'.
func SlashFlood(ip string) Request {
	return Request{
		Method:   "GET",
		Target:   "/" + strings.Repeat("/", 40) + "index.html",
		ClientIP: ip,
		Attack:   "slash-flood",
	}
}

// Nimda is the NIMDA-style malformed GET with escaped traversal.
func Nimda(ip string) Request {
	return Request{
		Method:   "GET",
		Target:   "/scripts/..%c0%af../winnt/system32/cmd.exe?/c+dir",
		ClientIP: ip,
		Attack:   "nimda",
	}
}

// Overflow is a Code-Red-style CGI buffer overflow: input longer than
// the paper's 1000-character bound.
func Overflow(ip string, length int) Request {
	if length <= 0 {
		length = 1200
	}
	return Request{
		Method:   "GET",
		Target:   "/cgi-bin/search?q=" + strings.Repeat("A", length),
		ClientIP: ip,
		Attack:   "overflow",
	}
}

// AttackMix returns one of each single-shot attack class from distinct
// attacker addresses — the ground-truth set of experiment E3.
func AttackMix() []Request {
	return []Request{
		PhfScan("192.0.2.1"),
		TestCGIScan("192.0.2.2"),
		SlashFlood("192.0.2.3"),
		Nimda("192.0.2.4"),
		Overflow("192.0.2.5", 1200),
	}
}

// Interleave deterministically shuffles several request streams into
// one, preserving each stream's internal order.
func Interleave(seed int64, streams ...[]Request) []Request {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, len(streams))
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]Request, 0, total)
	for len(out) < total {
		// Pick a stream with remaining items, weighted by remainder.
		remaining := 0
		for i, s := range streams {
			remaining += len(s) - idx[i]
			_ = s
		}
		pick := rng.Intn(remaining)
		for i, s := range streams {
			left := len(s) - idx[i]
			if pick < left {
				out = append(out, s[idx[i]])
				idx[i]++
				break
			}
			pick -= left
		}
	}
	return out
}
