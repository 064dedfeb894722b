package adaptive

import (
	"fmt"
	"math"
	"testing"
	"time"

	"gaaapi/internal/ids"
	"gaaapi/internal/netblock"
)

var epoch = time.Date(2003, 5, 1, 9, 0, 0, 0, time.UTC)

// testConfig is a small, fast-reacting tuning shared by the tests.
func testConfig() Config {
	cfg := Defaults()
	cfg.Synchronous = true
	cfg.HalfLife = 10 * time.Second
	cfg.MinSamples = 5
	cfg.Dwell = time.Minute
	return cfg
}

func newTestEngine(cfg Config) (*Engine, *ids.Manager, *netblock.Set) {
	mgr := ids.NewManager(ids.Low)
	blocks := netblock.NewSet(netblock.WithClock(func() time.Time { return epoch }))
	return New(cfg, mgr, blocks), mgr, blocks
}

// browse feeds n clean, slow, successful requests from source.
func browse(e *Engine, source string, n int, start time.Time) time.Time {
	paths := []string{"/index.html", "/docs/a.html", "/docs/b.html"}
	t := start
	for i := 0; i < n; i++ {
		t = t.Add(2 * time.Second)
		e.ObserveRequest(Sample{
			Time: t, Source: source, User: "alice",
			Path: paths[i%len(paths)], InputLen: 20,
		})
	}
	return t
}

func TestNormalTrafficStaysLow(t *testing.T) {
	e, mgr, blocks := newTestEngine(testConfig())
	browse(e, "10.0.0.1", 200, epoch)
	if got := mgr.Level(); got != ids.Low {
		t.Fatalf("level after normal traffic = %s, want low", got)
	}
	if blocks.Len() != 0 {
		t.Fatalf("normal traffic produced %d blocks", blocks.Len())
	}
	if s := e.SourceScore("10.0.0.1"); s >= e.cfg.BlockScore {
		t.Fatalf("normal source score %v >= block threshold %v", s, e.cfg.BlockScore)
	}
}

// attack feeds a fast scanning burst of denied, high-severity requests.
func attack(e *Engine, source string, n int, start time.Time) time.Time {
	t := start
	for i := 0; i < n; i++ {
		t = t.Add(50 * time.Millisecond)
		e.ObserveRequest(Sample{
			Time: t, Source: source,
			Path:     fmt.Sprintf("/cgi-bin/probe%d", i),
			Query:    "cmd=%3Bcat%20%2Fetc%2Fpasswd",
			InputLen: 900, Denied: true, Severity: ids.SevHigh,
		})
	}
	return t
}

func TestScanningSourceBlockedBeforeGlobalEscalation(t *testing.T) {
	e, mgr, blocks := newTestEngine(testConfig())
	end := browse(e, "10.0.0.1", 50, epoch)

	// Feed the attacker one sample at a time; the source must be
	// blocked, and at the instant it is blocked the global level must
	// still be Low — per-source enforcement leads global escalation.
	t0 := end
	blockedAt := -1
	for i := 0; i < 40; i++ {
		t0 = attack(e, "203.0.113.99", 1, t0)
		if blocks.Blocked("203.0.113.99") {
			blockedAt = i
			break
		}
	}
	if blockedAt < 0 {
		t.Fatalf("attacker never blocked; score=%v signal=%v", e.SourceScore("203.0.113.99"), e.Signal())
	}
	if got := mgr.Level(); got != ids.Low {
		t.Fatalf("global level already %s when source was blocked (after %d attack samples)", got, blockedAt+1)
	}
}

func TestSustainedAttackRaisesLevel(t *testing.T) {
	e, mgr, _ := newTestEngine(testConfig())
	end := browse(e, "10.0.0.1", 50, epoch)
	attack(e, "203.0.113.99", 200, end)
	if got := mgr.Level(); got < ids.Medium {
		t.Fatalf("sustained attack left level %s (signal %v)", got, e.Signal())
	}
	if e.SignalLevel() != mgr.Level() {
		t.Fatalf("engine level %s != manager level %s", e.SignalLevel(), mgr.Level())
	}
}

func TestHysteresisDwellBlocksImmediateLower(t *testing.T) {
	e, mgr, _ := newTestEngine(testConfig())
	end := browse(e, "10.0.0.1", 50, epoch)
	end = attack(e, "203.0.113.99", 200, end)
	raised := mgr.Level()
	if raised < ids.Medium {
		t.Fatalf("attack did not raise level (signal %v)", e.Signal())
	}
	transAfterRaise := e.Stats().Raises + e.Stats().Lowers

	// Quiet traffic immediately after: signal drops below the lower
	// threshold, but the dwell has not elapsed — level must hold.
	end = browse(e, "10.0.0.2", 20, end)
	if got := mgr.Level(); got != raised {
		t.Fatalf("level dropped to %s before dwell elapsed", got)
	}

	// After the dwell passes with calm traffic the level steps down.
	end = browse(e, "10.0.0.2", 60, end.Add(e.cfg.Dwell))
	if got := e.SignalLevel(); got >= raised {
		t.Fatalf("level still %s after dwell + calm traffic (signal %v)", got, e.Signal())
	}
	if moves := e.Stats().Raises + e.Stats().Lowers - transAfterRaise; moves > 2 {
		t.Fatalf("%d level moves during calm-down, hysteresis should allow at most 2", moves)
	}
}

func TestLowerRespectsExternalEscalation(t *testing.T) {
	cfg := testConfig()
	cfg.HighRaise = 100 // engine caps at Medium; High is operator-only here
	e, mgr, _ := newTestEngine(cfg)
	end := browse(e, "10.0.0.1", 50, epoch)
	end = attack(e, "203.0.113.99", 200, end)
	if e.SignalLevel() != ids.Medium {
		t.Fatalf("attack did not raise engine level to medium")
	}
	// An operator (or the signature correlator) escalates above the
	// engine's view; the engine's later lower must not undercut it.
	mgr.Escalate(ids.High)
	browse(e, "10.0.0.2", 120, end.Add(e.cfg.Dwell))
	if got := mgr.Level(); got != ids.High {
		t.Fatalf("engine undercut external escalation: level %s", got)
	}
}

func TestMergedEvidenceTriggersBlock(t *testing.T) {
	cfg := testConfig()
	cfg.MinSamples = 10
	e, _, blocks := newTestEngine(cfg)
	browse(e, "10.0.0.1", 50, epoch)

	// Locally only 3 samples — under the evidence floor even with a
	// hot score. A peer's score event supplies the missing evidence.
	t0 := epoch.Add(time.Hour)
	attack(e, "203.0.113.99", 3, t0)
	if blocks.Blocked("203.0.113.99") {
		t.Fatal("blocked below the evidence floor")
	}
	changed := e.ApplyScore(ScoreEvent{
		Source: "203.0.113.99", Score: 2.5, Samples: 9,
		At: t0.Add(time.Second),
	})
	if !changed {
		t.Fatal("merge reported no change")
	}
	if !blocks.Blocked("203.0.113.99") {
		t.Fatal("merged evidence did not trigger the block")
	}
}

func TestApplyScoreMergeRules(t *testing.T) {
	e, _, _ := newTestEngine(testConfig())
	e.ApplyScore(ScoreEvent{Source: "s", Score: 1.0, Samples: 2, At: epoch})
	// Lower remote score must not win; samples still accumulate.
	e.ApplyScore(ScoreEvent{Source: "s", Score: 0.4, Samples: 3, At: epoch.Add(time.Second)})
	scores := e.Scores()
	if len(scores) != 1 || scores[0].Score != 1.0 || scores[0].Samples != 5 {
		t.Fatalf("merge rules violated: %+v", scores)
	}
	// Snapshot restore: totals are max-wins, re-applying is a no-op.
	if e.RestoreScore(ScoreEvent{Source: "s", Score: 0.9, Samples: 5, At: epoch}) {
		t.Fatal("idempotent snapshot restore reported a change")
	}
	if e.RestoreScore(ScoreEvent{Source: "s", Score: 0.9, Samples: 8, At: epoch}) != true {
		t.Fatal("snapshot with more evidence should merge")
	}
	if got := e.Scores()[0].Samples; got != 8 {
		t.Fatalf("snapshot samples merged additively: got %d, want 8 (max-wins)", got)
	}
}

func TestProfileCheckpointMerge(t *testing.T) {
	e, _, _ := newTestEngine(testConfig())
	browse(e, "10.0.0.1", 60, epoch) // trains /index.html & friends

	profiles := e.Profiles()
	if len(profiles) == 0 {
		t.Fatal("no trained profiles after browsing")
	}
	cp := profiles[0]

	// A fresh engine adopting the checkpoint scores like the original.
	e2, _, _ := newTestEngine(testConfig())
	if !e2.ApplyProfile(cp) {
		t.Fatal("fresh engine rejected checkpoint")
	}
	got := e2.Profiles()
	if len(got) != 1 || got[0].N != cp.N || got[0].MeanLen != cp.MeanLen {
		t.Fatalf("checkpoint did not restore: %+v vs %+v", got, cp)
	}
	// A stale (less-trained) checkpoint must not regress the profile.
	stale := cp
	stale.N = cp.N - 1
	if e2.ApplyProfile(stale) {
		t.Fatal("stale checkpoint overwrote a better-trained profile")
	}
}

func TestCheckpointJournalEmitted(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointEvery = 10
	e, _, _ := newTestEngine(cfg)
	var checkpoints []ProfileCheckpoint
	var events []ScoreEvent
	e.SetJournal(
		func(ev ScoreEvent) { events = append(events, ev) },
		func(cp ProfileCheckpoint) { checkpoints = append(checkpoints, cp) },
	)
	end := browse(e, "10.0.0.1", 40, epoch)
	if len(checkpoints) == 0 {
		t.Fatal("no profile checkpoints journaled after 40 trained samples")
	}
	attack(e, "203.0.113.99", 30, end)
	if len(events) == 0 {
		t.Fatal("no score events journaled during an attack")
	}
	var deltaSum int
	for _, ev := range events {
		if ev.Source != "203.0.113.99" {
			continue
		}
		deltaSum += ev.Samples
	}
	if deltaSum > 30 {
		t.Fatalf("score-event sample deltas sum to %d > 30 observed", deltaSum)
	}
}

func TestBoundedProfileMaps(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSources = 8
	cfg.MaxResources = 8
	e, _, _ := newTestEngine(cfg)
	t0 := epoch
	for i := 0; i < 1000; i++ {
		t0 = t0.Add(10 * time.Millisecond)
		e.ObserveRequest(Sample{
			Time: t0, Source: fmt.Sprintf("10.1.%d.%d", i/250, i%250),
			Path: fmt.Sprintf("/page%d", i), InputLen: 20,
		})
	}
	st := e.Stats()
	if st.Sources > 8 || st.Resources > 8 {
		t.Fatalf("profile maps exceeded caps: %d sources, %d resources", st.Sources, st.Resources)
	}
	if st.Samples != 1000 {
		t.Fatalf("samples counter = %d, want 1000", st.Samples)
	}
}

func TestAsyncModeDeliversAndCloses(t *testing.T) {
	cfg := testConfig()
	cfg.Synchronous = false
	cfg.Buffer = 64
	e, _, _ := newTestEngine(cfg)
	for i := 0; i < 32; i++ {
		e.ObserveRequest(Sample{Time: epoch.Add(time.Duration(i) * time.Second), Source: "10.0.0.1", Path: "/a", InputLen: 10})
	}
	e.Close() // drains the channel before returning
	st := e.Stats()
	if st.Samples+st.Dropped != 32 {
		t.Fatalf("samples %d + dropped %d != 32", st.Samples, st.Dropped)
	}
	if st.Samples == 0 {
		t.Fatal("async worker processed nothing")
	}
}

func TestScoreFiniteAndSeverityMonotone(t *testing.T) {
	e, _, _ := newTestEngine(testConfig())
	end := browse(e, "10.0.0.1", 50, epoch)
	base := Sample{Time: end.Add(time.Second), Source: "10.9.9.9", Path: "/index.html", Query: "q='<x>'", InputLen: 500, Denied: true}
	e.mu.Lock()
	src := e.source(base.Source)
	res := e.resource(base.Path)
	prev := -1.0
	for sev := ids.Severity(0); sev <= ids.SevHigh; sev++ {
		s := base
		s.Severity = sev
		got := e.scoreLocked(src, res, s)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			e.mu.Unlock()
			t.Fatalf("score not finite at severity %d: %v", sev, got)
		}
		if got < prev {
			e.mu.Unlock()
			t.Fatalf("score not monotone in severity: sev %d scored %v < %v", sev, got, prev)
		}
		prev = got
	}
	e.mu.Unlock()
}

// TestStepDownLosesToConcurrentRaise, engine half: the engine decides to
// leave Medium, another writer raises the manager to High before the
// engine applies its drop (the profile journal runs between the two),
// and the step down from Medium must then do nothing.
func TestStepDownLosesToConcurrentRaise(t *testing.T) {
	cfg := testConfig()
	cfg.HighRaise = 100 // engine caps at Medium
	cfg.CheckpointEvery = 1
	e, mgr, _ := newTestEngine(cfg)
	end := browse(e, "10.0.0.1", 50, epoch)
	end = attack(e, "203.0.113.99", 200, end)
	if e.SignalLevel() != ids.Medium || mgr.Level() != ids.Medium {
		t.Fatalf("attack left engine %s, manager %s; want medium, medium", e.SignalLevel(), mgr.Level())
	}
	raced := false
	e.SetJournal(nil, func(ProfileCheckpoint) {
		if !raced && e.SignalLevel() == ids.Low { // decided, not yet applied
			raced = true
			mgr.Escalate(ids.High)
		}
	})
	browse(e, "10.0.0.2", 120, end.Add(e.cfg.Dwell))
	if !raced {
		t.Fatal("the engine never lowered its level; the test raced nothing")
	}
	if got := mgr.Level(); got != ids.High {
		t.Fatalf("engine's drop from medium overwrote a racing raise: level %s, want high", got)
	}
}
