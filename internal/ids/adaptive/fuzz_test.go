package adaptive

import (
	"math"
	"testing"
	"time"

	"gaaapi/internal/ids"
)

// FuzzAdaptiveScore drives the engine with an arbitrary sample stream
// decoded from the fuzz input and checks the safety invariants the
// design guarantees by construction:
//
//  1. every score and the global signal stay finite;
//  2. the instantaneous score is monotone in report severity at every
//     engine state the stream reaches;
//  3. the engine only raises: no sample lowers the manager's level,
//     and the manager's timed step-down, ticked after every sample,
//     lowers it by at most one level.
//
// Each sample costs 6 input bytes:
// dt, source-id, path-id, input-len, query-shape, flags.
func FuzzAdaptiveScore(f *testing.F) {
	// Seeds: calm browsing, a scan burst, an oscillating mix, and a
	// same-instant burst (dt=0 exercises the decay edge case).
	f.Add([]byte{8, 1, 1, 2, 0, 0, 8, 1, 2, 2, 0, 0, 8, 1, 3, 2, 0, 0})
	f.Add([]byte{1, 9, 11, 250, 3, 7, 1, 9, 12, 250, 3, 7, 1, 9, 13, 250, 3, 7, 1, 9, 14, 250, 3, 7})
	f.Add([]byte{8, 1, 1, 2, 0, 0, 1, 9, 11, 250, 3, 7, 200, 1, 2, 2, 0, 0, 1, 9, 12, 250, 3, 7})
	f.Add([]byte{0, 9, 1, 250, 3, 7, 0, 9, 2, 250, 3, 7, 0, 9, 3, 250, 3, 7})

	paths := []string{
		"/index.html", "/docs/a.html", "/docs/b.html", "/login",
		"/cgi-bin/phf", "/admin/config", "/search", "/img/logo.png",
		"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h",
	}
	queries := []string{"", "q=books", "cmd=%3Bcat%20%2Fetc%2Fpasswd", "x='<script>'"}

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Defaults()
		cfg.HalfLife = 5 * time.Second
		now := time.Unix(1_051_779_600, 0) // the campaign epoch
		mgr := ids.NewManager(ids.Low, ids.WithManagerClock(func() time.Time { return now }))
		e := New(cfg, mgr, nil) // score-only: blocks exercised in unit tests

		for len(data) >= 6 {
			chunk := data[:6]
			data = data[6:]
			now = now.Add(time.Duration(chunk[0]) * 100 * time.Millisecond)
			s := Sample{
				Time:     now,
				Source:   string(rune('a' + chunk[1]%8)),
				Path:     paths[int(chunk[2])%len(paths)],
				Query:    queries[int(chunk[4])%len(queries)],
				InputLen: int(chunk[3]) * 8,
				Denied:   chunk[5]&4 != 0,
				Severity: ids.Severity(chunk[5] & 3),
			}

			// Invariant 2 on the pre-sample state: severity sweep.
			e.mu.Lock()
			src := e.source(s.Source)
			res := e.resource(s.Path)
			prev := -1.0
			for sev := ids.Severity(0); sev <= ids.SevHigh; sev++ {
				probe := s
				probe.Severity = sev
				got := e.scoreLocked(src, res, probe)
				if math.IsNaN(got) || math.IsInf(got, 0) {
					e.mu.Unlock()
					t.Fatalf("non-finite score %v at severity %d", got, sev)
				}
				if got < prev {
					e.mu.Unlock()
					t.Fatalf("severity monotonicity broken: sev %d scored %v < %v", sev, got, prev)
				}
				prev = got
			}
			e.mu.Unlock()

			before := mgr.Level()
			e.ObserveRequest(s)

			// Invariant 1 on the post-sample state.
			if sig := e.Signal(); math.IsNaN(sig) || math.IsInf(sig, 0) {
				t.Fatalf("non-finite signal %v", sig)
			}
			if sc := e.SourceScore(s.Source); math.IsNaN(sc) || math.IsInf(sc, 0) {
				t.Fatalf("non-finite source score %v", sc)
			}

			// Invariant 3: only raises, and single-step lowers.
			after := mgr.Level()
			if after < before {
				t.Fatalf("a sample lowered the level: %s -> %s", before, after)
			}
			mgr.Tick(now)
			if lvl := mgr.Level(); lvl < after-1 {
				t.Fatalf("a tick skipped a level: %s -> %s", after, lvl)
			}
		}
	})
}
