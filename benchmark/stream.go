package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
)

// A target is one request line the generator can emit. The load
// workers overwrite the fields of one reused *http.Request from it, so
// a run never holds more than a handful of live requests.
type target struct {
	path  string // decoded URL path, as net/http hands it to the handler
	query string // raw query
	uri   string // request URI as sent on the wire
	// body is the exact response body the server must send for a 200;
	// "" means the body is not checked (CGI output).
	body string
}

func newTarget(uri, body string) target {
	u, err := url.ParseRequestURI(uri)
	if err != nil {
		panic(fmt.Sprintf("benchmark target %q: %v", uri, err))
	}
	return target{path: u.Path, query: u.RawQuery, uri: uri, body: body}
}

// Request classes: each carries the status the deployment must answer.
const (
	classLegit   = iota // 200
	classAttack         // 403: first contact from a fresh source, denied by policy
	classBlocked        // 403: a source this worker already got blocked
)

// item is one generated request.
type item struct {
	tgt    *target
	remote string // RemoteAddr ("ip:port"); ignored over TCP
	class  int
	expect int // HTTP status the oracle demands
}

// The legitimate mix is workload.Legit's shape: four static documents
// and the search CGI with one of five queries.
var legitDocs = map[string]string{
	"/index.html":        "<html>welcome</html>",
	"/docs/guide.html":   "<html>guide</html>",
	"/docs/api.html":     "<html>api</html>",
	"/news/2003-05.html": "<html>news</html>",
}

var legitQueries = []string{"authorization", "apache", "intrusion+detection", "gaa+api", "eacl"}

// browseTargets has 8 entries: 4 documents (drawn with weight 1 each)
// and 5 search queries sharing the fifth slot, exactly as
// workload.Legit draws them.
func browseTargets() (docs, searches []target) {
	for _, p := range []string{"/index.html", "/docs/guide.html", "/docs/api.html", "/news/2003-05.html"} {
		docs = append(docs, newTarget(p, legitDocs[p]))
	}
	for _, q := range legitQueries {
		searches = append(searches, newTarget("/cgi-bin/search?q="+q, ""))
	}
	return docs, searches
}

// attackTargets are the first-contact attack classes of the siege mix
// (Agarwal & Hussain's survey classes the repo's policies cover):
// vulnerable-CGI probe, NIMDA-style escaped traversal, slash-flood
// DoS, and a 1200-byte CGI buffer overflow.
func attackTargets() []target {
	return []target{
		newTarget("/cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd", ""),
		newTarget("/scripts/..%c0%af../winnt/system32/cmd.exe?/c+dir", ""),
		newTarget("/"+strings.Repeat("/", 40)+"index.html", ""),
		newTarget("/cgi-bin/search?q="+strings.Repeat("A", 1200), ""),
	}
}

// Sprawl's site: 64 directories of 256 documents each.
const (
	sprawlDirs = 64
	sprawlDocs = 256
)

func sprawlPath(dir, doc int) string { return fmt.Sprintf("/d%02d/doc%03d.html", dir, doc) }
func sprawlBody(dir, doc int) string { return fmt.Sprintf("<html>d%02d/%03d</html>", dir, doc) }

func sprawlTargets() []target {
	out := make([]target, 0, sprawlDirs*sprawlDocs)
	for d := 0; d < sprawlDirs; d++ {
		for i := 0; i < sprawlDocs; i++ {
			out = append(out, newTarget(sprawlPath(d, i), sprawlBody(d, i)))
		}
	}
	return out
}

// legitSourcesPerWorker × workers ≈ the ~1000 sources of the issue.
const legitSourcesPerWorker = 500

// generator produces one worker's request stream from (kind, seed,
// worker). A source address belongs to exactly one worker's stream:
// with a shared pool the "already blocked" request of one worker can
// overtake the attack of another that blocks it, and the oracle would
// expect the wrong status.
type generator struct {
	kind string
	rng  *rand.Rand
	zipf *rand.Zipf

	docs, searches, attacks, sprawl []target

	legitSrc  []string
	attackSrc []string // pre-built pool of fresh attacker addresses
	attacked  int      // attackSrc[:attacked] are blocked by now
}

// Stream kinds; a workload names one of them.
const (
	streamBrowse = "browse"
	streamSiege  = "siege"
	streamSprawl = "sprawl"
)

// newGenerator builds worker's generator for a stream of n requests.
func newGenerator(kind string, seed int64, worker, n int) *generator {
	g := &generator{
		kind: kind,
		rng:  rand.New(rand.NewSource(seed*1000003 + int64(worker))),
	}
	g.legitSrc = make([]string, legitSourcesPerWorker)
	for i := range g.legitSrc {
		g.legitSrc[i] = fmt.Sprintf("10.%d.%d.%d:40000", worker, i/250, 1+i%250)
	}
	switch kind {
	case streamBrowse:
		g.docs, g.searches = browseTargets()
	case streamSiege:
		g.docs, g.searches = browseTargets()
		g.attacks = attackTargets()
		// 5 % of the stream attacks; the pool has a 20 % margin and the
		// generator falls back to a legitimate request if it runs dry.
		g.attackSrc = make([]string, n/20+n/100+64)
		for i := range g.attackSrc {
			g.attackSrc[i] = fmt.Sprintf("%d.%d.%d.%d:40000", 11+worker, i>>16&255, i>>8&255, i&255)
		}
	case streamSprawl:
		g.sprawl = sprawlTargets()
		// Zipf over the 16384 objects, P(rank k) ∝ (8+k)^-1.1: a working
		// set several times NewStack's 1024-entry policy cache, which
		// then hits about 60 % of the time.
		g.zipf = rand.NewZipf(g.rng, 1.1, 8, uint64(len(g.sprawl)-1))
	default:
		panic("unknown stream kind " + kind)
	}
	return g
}

func (g *generator) legitTarget() *target {
	if i := g.rng.Intn(len(g.docs) + 1); i < len(g.docs) {
		return &g.docs[i]
	}
	return &g.searches[g.rng.Intn(len(g.searches))]
}

func (g *generator) legit() item {
	return item{tgt: g.legitTarget(), remote: g.legitSrc[g.rng.Intn(len(g.legitSrc))], class: classLegit, expect: 200}
}

// next returns the stream's next request.
func (g *generator) next() item {
	switch g.kind {
	case streamSprawl:
		// Scatter the popularity ranks over the directories so the hot
		// objects do not all share one local policy.
		rank := int(g.zipf.Uint64())
		idx := rank * 2654435761 % len(g.sprawl)
		return item{tgt: &g.sprawl[idx], remote: g.legitSrc[g.rng.Intn(len(g.legitSrc))], class: classLegit, expect: 200}
	case streamSiege:
		switch u := g.rng.Intn(100); {
		case u < 60:
			return g.legit()
		case u < 65:
			if g.attacked == len(g.attackSrc) {
				return g.legit()
			}
			src := g.attackSrc[g.attacked]
			g.attacked++
			return item{tgt: &g.attacks[g.rng.Intn(len(g.attacks))], remote: src, class: classAttack, expect: 403}
		default:
			if g.attacked == 0 {
				return g.legit()
			}
			// A legitimate-looking request from a source already
			// blocked: 403 whether the firewall or BadGuys answers.
			return item{tgt: g.legitTarget(), remote: g.attackSrc[g.rng.Intn(g.attacked)], class: classBlocked, expect: 403}
		}
	default:
		return g.legit()
	}
}

// streamHash is the FNV-1a hash of every worker's stream of n requests
// in worker order: what was sent, from where, and what the oracle
// expects. It is printed with the results so two runs can show they
// measured the same inputs.
func streamHash(kind string, seed int64, workers, perWorker int) string {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	for w := 0; w < workers; w++ {
		g := newGenerator(kind, seed, w, perWorker)
		for i := 0; i < perWorker; i++ {
			it := g.next()
			mix(it.tgt.uri)
			mix(it.remote)
			h = (h ^ uint64(it.expect)) * 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}
