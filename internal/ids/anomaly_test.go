package ids

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func trainedDetector(t *testing.T) *Detector {
	t.Helper()
	d := NewDetector(DefaultAnomalyConfig())
	// Typical behaviour: alice browses three pages with query lengths
	// around 20±4.
	paths := []string{"/index.html", "/docs/a.html", "/docs/b.html"}
	lengths := []int{16, 18, 20, 22, 24}
	for i := 0; i < 30; i++ {
		d.Train("alice", paths[i%len(paths)], lengths[i%len(lengths)])
	}
	return d
}

func TestAnomalyUntrainedScoresZero(t *testing.T) {
	d := NewDetector(DefaultAnomalyConfig())
	if s := d.Score("nobody", "/x", 10000); s != 0 {
		t.Errorf("untrained score = %v, want 0", s)
	}
	d.Train("bob", "/a", 10)
	if s := d.Score("bob", "/weird", 9999); s != 0 {
		t.Errorf("under-trained score = %v, want 0 (below MinTraining)", s)
	}
}

func TestAnomalyNormalTrafficScoresLow(t *testing.T) {
	d := trainedDetector(t)
	if s := d.Score("alice", "/index.html", 20); s >= d.Threshold() {
		t.Errorf("normal request score = %v, want < threshold %v", s, d.Threshold())
	}
	if d.Unusual("alice", "/docs/a.html", 18) {
		t.Error("typical request flagged unusual")
	}
}

func TestAnomalyNewPathAndHugeInputFlagged(t *testing.T) {
	d := trainedDetector(t)
	// A buffer-overflow style request: never-seen path, enormous input.
	s := d.Score("alice", "/cgi-bin/phf", 1500)
	if s < d.Threshold() {
		t.Errorf("attack-like request score = %v, want >= %v", s, d.Threshold())
	}
	if !d.Unusual("alice", "/cgi-bin/phf", 1500) {
		t.Error("attack-like request not flagged unusual")
	}
}

func TestAnomalyNewPathAloneBelowThreshold(t *testing.T) {
	d := trainedDetector(t)
	// Visiting one new page with a typical input length is mildly
	// surprising but not an alarm.
	if d.Unusual("alice", "/docs/new.html", 20) {
		t.Error("single new path with normal length should not alarm")
	}
}

func TestAnomalyConstantLengthProfile(t *testing.T) {
	d := NewDetector(DefaultAnomalyConfig())
	for i := 0; i < 25; i++ {
		d.Train("bot", "/status", 0)
	}
	if s := d.Score("bot", "/status", 0); s != 0 {
		t.Errorf("identical observation score = %v, want 0", s)
	}
	if !d.Unusual("bot", "/status", 500) {
		t.Error("deviation from constant profile should alarm")
	}
}

func TestAnomalyTrainedCount(t *testing.T) {
	d := NewDetector(DefaultAnomalyConfig())
	for i := 0; i < 7; i++ {
		d.Train("u", "/p", i)
	}
	if n := d.Trained("u"); n != 7 {
		t.Errorf("Trained = %d, want 7", n)
	}
	if n := d.Trained("ghost"); n != 0 {
		t.Errorf("Trained(ghost) = %d, want 0", n)
	}
}

func TestAnomalyConfigDefaults(t *testing.T) {
	d := NewDetector(AnomalyConfig{})
	def := DefaultAnomalyConfig()
	if d.cfg.MinTraining != def.MinTraining || d.cfg.Threshold != def.Threshold {
		t.Errorf("zero config not defaulted: %+v", d.cfg)
	}
}

// Property: scores are never negative and training is monotone in count.
func TestAnomalyScoreNonNegative(t *testing.T) {
	d := trainedDetector(t)
	prop := func(pathSeed uint8, length uint16) bool {
		path := fmt.Sprintf("/p%d", pathSeed)
		return d.Score("alice", path, int(length)) >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("non-negative score property: %v", err)
	}
}

// Welford moments must match the naive two-pass computation.
func TestProfileMomentsMatchNaive(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		d := NewDetector(AnomalyConfig{})
		var sum float64
		for _, v := range raw {
			d.Train("p", "/x", int(v))
			sum += float64(v)
		}
		p := d.profiles["p"]
		mean := sum / float64(len(raw))
		var ss float64
		for _, v := range raw {
			d := float64(v) - mean
			ss += d * d
		}
		naiveVar := ss / float64(len(raw)-1)
		gotSD := p.len.Stddev()
		wantSD := 0.0
		if naiveVar > 0 {
			wantSD = sqrtApprox(naiveVar)
		}
		return approxEqual(p.len.Mean, mean, 1e-9) && approxEqual(gotSD*gotSD, wantSD*wantSD, 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("Welford property: %v", err)
	}
}

func approxEqual(a, b, eps float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := 1.0
	if b > 1 || b < -1 {
		if b < 0 {
			scale = -b
		} else {
			scale = b
		}
	}
	return diff <= eps*scale
}

func sqrtApprox(x float64) float64 {
	// Newton iterations are plenty for test comparison.
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 64; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

// TestObserveEqualsUnusualThenTrain holds Observe to the two calls it
// replaces in the guard: the same verdict, and the same profile after.
func TestObserveEqualsUnusualThenTrain(t *testing.T) {
	for _, tc := range []struct {
		name, principal, path string
		inputLen              int
		wantUnusual           bool
	}{
		{"untrained principal", "nobody", "/x", 10000, false},
		{"trained, typical request", "alice", "/index.html", 20, false},
		{"trained, new path alone", "alice", "/docs/new.html", 20, false},
		{"trained, long input on a new path", "alice", "/cgi-bin/phf", 1500, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			two, one := trainedDetector(t), trainedDetector(t)
			// Twice: the second observation is scored against a profile
			// that already holds the first.
			for round := 0; round < 2; round++ {
				want := two.Unusual(tc.principal, tc.path, tc.inputLen)
				two.Train(tc.principal, tc.path, tc.inputLen)
				if got := one.Observe(tc.principal, tc.path, tc.inputLen); got != want {
					t.Fatalf("round %d: Observe = %v, Unusual then Train = %v", round, got, want)
				}
				if round == 0 && want != tc.wantUnusual {
					t.Fatalf("Unusual = %v, want %v", want, tc.wantUnusual)
				}
			}
			if one.Trained(tc.principal) != two.Trained(tc.principal) {
				t.Fatalf("Trained = %d, want %d", one.Trained(tc.principal), two.Trained(tc.principal))
			}
			for _, probe := range []struct {
				path string
				n    int
			}{{tc.path, tc.inputLen}, {"/never-seen", 20}, {"/index.html", 400}} {
				if got, want := one.Score(tc.principal, probe.path, probe.n), two.Score(tc.principal, probe.path, probe.n); got != want {
					t.Fatalf("Score(%s, %d) after Observe = %v, after Unusual+Train = %v", probe.path, probe.n, got, want)
				}
			}
		})
	}
}

// TestDetectorPathSetIsBounded: a grant precedes the 404, so a permitted
// client can name any number of paths; its profile must not grow with
// them. A full set stops recording — later paths keep scoring as
// never-seen — while a path recorded before the bound is still known.
func TestDetectorPathSetIsBounded(t *testing.T) {
	d := trainedDetector(t)
	for i := 0; i < 10000; i++ {
		d.Observe("alice", fmt.Sprintf("/random/%d", i), 20)
	}
	if n := len(d.profiles["alice"].paths); n > maxProfilePaths {
		t.Fatalf("profile holds %d paths, want <= %d", n, maxProfilePaths)
	}
	if got := d.Trained("alice"); got != 30+10000 {
		t.Fatalf("Trained = %d, want %d: a full path set must not stop the length moments", got, 30+10000)
	}
	// Novelty is the only path-dependent term of the score, so the gap
	// between two paths at one input length is exactly its weight.
	base := d.Score("alice", "/index.html", 20)
	if early := d.Score("alice", "/random/0", 20); early != base {
		t.Errorf("path recorded before the bound scores %v, a trained path %v: novelty should be 0", early, base)
	}
	if late := d.Score("alice", "/random/9999", 20); late != base+DefaultAnomalyConfig().NewPathWeight {
		t.Errorf("path met after the bound scores %v, want %v (still never-seen)", late, base+DefaultAnomalyConfig().NewPathWeight)
	}
}

// TestDetectorProfileTableIsBounded: every granted source address is a
// principal, so the profile table must not grow with them. A full table
// admits no new principal — it scores 0, as an untrained one does —
// while a principal admitted before the bound keeps training.
func TestDetectorProfileTableIsBounded(t *testing.T) {
	d := trainedDetector(t)
	for i := 0; i < 20000; i++ {
		d.Observe(fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff), "/index.html", 20)
	}
	if n := len(d.profiles); n != maxProfiles {
		t.Fatalf("profile table holds %d principals, want exactly %d", n, maxProfiles)
	}
	d.Train("alice", "/docs/a.html", 20)
	if got := d.Trained("alice"); got != 31 {
		t.Errorf("admitted principal Trained = %d, want 31: a full table must not stop its training", got)
	}
	late := "10.0.78.31" // the 20 000th source, met after the bound
	for i := 0; i < 2*DefaultAnomalyConfig().MinTraining; i++ {
		d.Train(late, "/index.html", 20)
	}
	if n, s := d.Trained(late), d.Score(late, "/weird", 9999); n != 0 || s != 0 {
		t.Errorf("unadmitted principal: Trained = %d, Score = %v, want 0 and 0", n, s)
	}
}

// TestDetectorProfileHeap pins what full profiles keep: each holds its
// maxProfilePaths path hashes (2 KiB) and its moments, and no path, so
// 500 of them stay under 3 KiB apiece (2.1 KiB on amd64). A map of the
// paths kept 21 KiB per profile, most of it the request strings it
// pinned.
func TestDetectorProfileHeap(t *testing.T) {
	const principals, perProfile = 500, 3 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDetector(DefaultAnomalyConfig())
	for p := 0; p < principals; p++ {
		ip := fmt.Sprintf("10.1.%d.%d", p>>8, p&0xff)
		for i := 0; i < maxProfilePaths; i++ {
			// A fresh string per request, as the server parses one.
			d.Train(ip, fmt.Sprintf("/site/dir%03d/page%03d.html", i%17, i), 20)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := len(d.profiles["10.1.0.0"].paths); n != maxProfilePaths {
		t.Fatalf("profile holds %d paths, want a full %d", n, maxProfilePaths)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d full profiles keep %d bytes, %d per profile", principals, grown, grown/principals)
	if grown > principals*perProfile {
		t.Errorf("%d full profiles keep %d bytes, want <= %d per profile", principals, grown, perProfile)
	}
	runtime.KeepAlive(d)
}
