package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// The campaign-class generators below are the adversarial-traffic half
// of the scenario factory (internal/scenario): seeded, deterministic
// request streams for the attack classes an integrated web IDS must be
// exercised against — credential stuffing, distributed low-and-slow
// brute force, scraping bursts and legitimate flash crowds. Every
// generator obeys the same contract as Legit: the same seed yields a
// byte-identical request stream.

// IPPool returns n deterministic addresses under a /24-style prefix:
// IPPool("198.51.100", 3) -> 198.51.100.1 .. 198.51.100.3. n is capped
// at 254 so the host octet stays valid.
func IPPool(prefix string, n int) []string {
	if n > 254 {
		n = 254
	}
	out := make([]string, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, fmt.Sprintf("%s.%d", prefix, i))
	}
	return out
}

// AssignSources deals sources onto reqs deterministically: shuffled
// round-robin, so every source appears within any window of
// len(sources) consecutive requests but the order varies with seed.
// It mutates and returns reqs.
func AssignSources(reqs []Request, sources []string, seed int64) []Request {
	if len(sources) == 0 {
		return reqs
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(sources))
	for i := range reqs {
		reqs[i].ClientIP = sources[order[i%len(sources)]]
	}
	return reqs
}

// Login is one authenticated GET of target — a successful login probe
// when the password is right, a failed attempt otherwise.
func Login(ip, target, user, pass string) Request {
	return Request{Method: "GET", Target: target, ClientIP: ip, User: user, Pass: pass}
}

// CredentialStuffing models the stuffing attack: each source sprays
// perSource wrong-password attempts across the user list against
// target, the per-source streams interleaved. Attempt passwords are
// unique per (source, index) as real stuffing lists are.
func CredentialStuffing(target string, users, sources []string, perSource int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	streams := make([][]Request, 0, len(sources))
	for si, ip := range sources {
		stream := make([]Request, 0, perSource)
		for i := 0; i < perSource; i++ {
			stream = append(stream, Request{
				Method:   "GET",
				Target:   target,
				ClientIP: ip,
				User:     users[rng.Intn(len(users))],
				Pass:     fmt.Sprintf("stuffed-%d-%d", si, i),
				Attack:   "credential-stuffing",
			})
		}
		streams = append(streams, stream)
	}
	return Interleave(rng.Int63(), streams...)
}

// LowAndSlow models the distributed low-and-slow brute force: one
// guess at a time against a single account, rotating through many
// sources with gap between attempts so no per-source threshold ever
// trips. Total length is len(sources)*perSource.
func LowAndSlow(target, user string, sources []string, perSource int, gap time.Duration, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(sources))
	out := make([]Request, 0, len(sources)*perSource)
	for round := 0; round < perSource; round++ {
		for _, idx := range order {
			out = append(out, Request{
				Method:   "GET",
				Target:   target,
				ClientIP: sources[idx],
				User:     user,
				Pass:     fmt.Sprintf("slow-%d-%d", round, idx),
				Attack:   "low-and-slow",
				Delay:    gap,
			})
		}
	}
	if len(out) > 0 {
		out[0].Delay = 0
	}
	return out
}

// ScrapeBurst models a scraper sweeping the site from one source: n
// GETs cycling through paths (appending enumerated guesses once the
// real tree is exhausted), paced by gap.
func ScrapeBurst(ip string, paths []string, n int, gap time.Duration, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(paths))
	out := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		var target string
		if i < len(paths) {
			target = paths[order[i]]
		} else {
			target = fmt.Sprintf("/page-%d.html", i-len(paths)+1)
		}
		out = append(out, Request{
			Method:   "GET",
			Target:   target,
			ClientIP: ip,
			Attack:   "scrape",
			Delay:    gap,
		})
	}
	if len(out) > 0 {
		out[0].Delay = 0
	}
	return out
}

// FlashCrowd is a legitimate traffic spike: n requests over the
// standard document tree from k distinct well-behaved sources, no
// pacing. The requests carry no attack label — a detector that blocks
// any of them is producing false positives.
func FlashCrowd(n, k int, seed int64) []Request {
	reqs := Legit(n, seed)
	return AssignSources(reqs, IPPool("203.0.113", k), seed+1)
}

// Relabel overrides the attack-class label on every request — campaign
// phases use it to track sub-streams (e.g. an anonymous probe of an
// authenticated area) through per-class assertions. It mutates and
// returns reqs.
func Relabel(reqs []Request, class string) []Request {
	for i := range reqs {
		reqs[i].Attack = class
	}
	return reqs
}
