package ids

import (
	"fmt"
	"math/rand"
	"sync"
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
		// carol's set is full: only a length inside the band, where
		// novelty decides, sends Observe to the path search.
		{"full, typical length", "carol", "/full/7", 20, false},
		{"full, typical length on a new path", "carol", "/never-seen", 20, false},
		{"full, huge length", "carol", "/full/7", 1500, true},
		{"full, length in the band on a recorded path", "carol", "/full/7", fullBand, false},
		{"full, length in the band on an unrecorded path", "carol", "/never-seen", fullBand, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			two, one := trainedDetector(t), trainedDetector(t)
			fillProfile(two, "carol")
			fillProfile(one, "carol")
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

// fillProfile trains principal on maxProfilePaths paths, /full/0
// onwards, with lengths 16 to 24 around 20: its set is full, and its
// length term is about 2.5 at fullBand, inside the band [Threshold −
// NewPathWeight, Threshold) = [2, 3) of the default tuning.
func fillProfile(d *Detector, principal string) {
	lengths := []int{16, 18, 20, 22, 24}
	for i := 0; i < maxProfilePaths; i++ {
		d.Train(principal, fmt.Sprintf("/full/%d", i), lengths[i%len(lengths)])
	}
}

// fullBand is an input length inside fillProfile's band.
const fullBand = 27

// TestObserveDifferential drives Observe on one detector and Unusual
// then Train on another, over more than maxProfilePaths paths per
// principal and with input lengths on both sides of both band edges, so
// that full profiles take both the counted and the searched branch.
// Every verdict, Trained count and probe Score must match.
func TestObserveDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 2003} {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultAnomalyConfig()
		one, two := NewDetector(cfg), NewDetector(cfg)
		principals := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"}
		var counted, searched, unusual int
		for op := 0; op < 6000; op++ {
			pr := principals[rng.Intn(len(principals))]
			path := fmt.Sprintf("/p/%d", rng.Intn(400))
			n := 14 + rng.Intn(13) // 14..26 around 20
			if op > 600 && rng.Intn(3) == 0 {
				n = rng.Intn(60)
			}
			if p := one.profiles[pr]; p.full() {
				known, novel := one.scores(p, n)
				if known >= cfg.Threshold || novel < cfg.Threshold {
					counted++
				} else {
					searched++
				}
			}
			want := two.Unusual(pr, path, n)
			two.Train(pr, path, n)
			if got := one.Observe(pr, path, n); got != want {
				t.Fatalf("seed %d op %d: Observe(%s, %s, %d) = %v, Unusual then Train = %v", seed, op, pr, path, n, got, want)
			}
			if want {
				unusual++
			}
			if got, want := one.Trained(pr), two.Trained(pr); got != want {
				t.Fatalf("seed %d op %d: Trained(%s) = %d, want %d", seed, op, pr, got, want)
			}
			for _, probe := range []string{path, "/p/0", "/never-seen"} {
				if got, want := one.Score(pr, probe, n), two.Score(pr, probe, n); got != want {
					t.Fatalf("seed %d op %d: Score(%s, %s, %d) = %v after Observe, %v after Unusual+Train", seed, op, pr, probe, n, got, want)
				}
			}
		}
		t.Logf("seed %d: full-profile observations %d counted, %d searched; %d unusual", seed, counted, searched, unusual)
		if counted == 0 || searched == 0 || unusual == 0 {
			t.Fatalf("seed %d: %d counted, %d searched, %d unusual: every branch must be taken", seed, counted, searched, unusual)
		}
	}
}

// TestObserveConcurrentFullProfiles races Observe and Score on shared
// full profiles (run it under -race): a grant that only counts still
// takes the lock.
func TestObserveConcurrentFullProfiles(t *testing.T) {
	d := NewDetector(DefaultAnomalyConfig())
	principals := []string{"a", "b"}
	for _, pr := range principals {
		fillProfile(d, pr)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				pr := principals[(g+i)%len(principals)]
				n := []int{20, fullBand, 1500}[i%3]
				if g%2 == 0 {
					d.Observe(pr, fmt.Sprintf("/full/%d", i%300), n)
				} else if s := d.Score(pr, "/never-seen", n); s < 0 {
					t.Errorf("Score = %v", s)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, pr := range principals {
		if got, want := d.Trained(pr), maxProfilePaths+2*2000/len(principals); got != want {
			t.Errorf("Trained(%s) = %d, want %d", pr, got, want)
		}
		if n := len(d.profiles[pr].paths); n != maxProfilePaths {
			t.Errorf("%s holds %d paths, want %d", pr, n, maxProfilePaths)
		}
	}
}

// BenchmarkObserve times one grant's Observe against a full profile and
// a five-path one, at a typical input length.
func BenchmarkObserve(b *testing.B) {
	for _, bc := range []struct {
		name  string
		paths int
	}{{"full", maxProfilePaths}, {"5-path", 5}} {
		b.Run(bc.name, func(b *testing.B) {
			d := NewDetector(DefaultAnomalyConfig())
			paths := make([]string, bc.paths)
			for i := range paths {
				paths[i] = fmt.Sprintf("/site/dir%03d/page%03d.html", i%17, i)
				d.Train("10.1.0.1", paths[i], 16+2*(i%5))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Observe("10.1.0.1", paths[i%len(paths)], 20)
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
