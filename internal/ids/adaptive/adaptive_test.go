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
	cfg.HalfLife = 10 * time.Second
	cfg.MinSamples = 5
	return cfg
}

// hold is the threat manager's hold period: a level no sample renews
// for this long steps down one level on the next tick.
const hold = 5 * time.Minute

// newTestEngine wires an engine to a manager and a block set whose
// clocks stand at epoch: the engine renews the level's hold at sample
// time, which the tests tick the manager with.
func newTestEngine(cfg Config) (*Engine, *ids.Manager, *netblock.Set) {
	clock := func() time.Time { return epoch }
	mgr := ids.NewManager(ids.Low, ids.WithManagerClock(clock))
	blocks := netblock.NewSet(netblock.WithClock(clock))
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

// TestLapsedBlockIsRenewed: a block lasts blockFor; a source that is
// still probing after it lapsed is blocked again.
func TestLapsedBlockIsRenewed(t *testing.T) {
	e, _, _ := newTestEngine(testConfig())
	end := attack(e, "203.0.113.99", 30, epoch)
	if got := e.Stats().SourceBlocks; got != 1 {
		t.Fatalf("SourceBlocks after 30 probes = %d, want 1", got)
	}
	attack(e, "203.0.113.99", 30, end.Add(11*time.Minute))
	if got := e.Stats().SourceBlocks; got != 2 {
		t.Errorf("SourceBlocks after 30 more probes past the block's end = %d, want 2", got)
	}
}

func TestSustainedAttackRaisesLevel(t *testing.T) {
	e, mgr, _ := newTestEngine(testConfig())
	end := browse(e, "10.0.0.1", 50, epoch)
	attack(e, "203.0.113.99", 200, end)
	if got := mgr.Level(); got < ids.Medium {
		t.Fatalf("sustained attack left level %s (signal %v)", got, e.Signal())
	}
	if raises := e.Stats().Raises; raises == 0 || raises > 2 {
		t.Fatalf("engine counted %d raises to reach %s, want 1 or 2", raises, mgr.Level())
	}
}

// TestHysteresisDwellBlocksImmediateLower: the engine never lowers the
// level. Calm traffic right after a raise leaves it where it is, and so
// does a tick inside the hold; a hold with no sample above the level's
// lower threshold lapses, and the tick then steps it down one level.
func TestHysteresisDwellBlocksImmediateLower(t *testing.T) {
	e, mgr, _ := newTestEngine(testConfig())
	end := browse(e, "10.0.0.1", 50, epoch)
	end = attack(e, "203.0.113.99", 200, end)
	raised := mgr.Level()
	if raised < ids.Medium {
		t.Fatalf("attack did not raise level (signal %v)", e.Signal())
	}
	raises := e.Stats().Raises

	// Quiet traffic immediately after: the signal drops below the
	// lower threshold, but the hold has not lapsed — the level holds.
	end = browse(e, "10.0.0.2", 20, end)
	mgr.Tick(end)
	if got := mgr.Level(); got != raised {
		t.Fatalf("level dropped to %s inside the hold", got)
	}

	// A whole hold of calm traffic after the signal collapsed, the
	// tick steps down one level.
	end = browse(e, "10.0.0.2", 30, end)
	end = browse(e, "10.0.0.2", int(hold/(2*time.Second)), end)
	mgr.Tick(end)
	if got := mgr.Level(); got != raised-1 {
		t.Fatalf("level %s after a calm hold, want %s (signal %v)", got, raised-1, e.Signal())
	}
	if got := e.Stats().Raises; got != raises {
		t.Fatalf("calm traffic raised the level %d more times", got-raises)
	}
}

// TestLowerRespectsExternalEscalation: an operator (or the signature
// correlator) escalates above the engine's raise. The engine renews no
// level its signal does not bear out, so high lapses one step, to the
// medium the engine raised, not to low.
func TestLowerRespectsExternalEscalation(t *testing.T) {
	cfg := testConfig()
	cfg.HighRaise = 100 // engine caps at Medium; High is operator-only here
	e, mgr, _ := newTestEngine(cfg)
	end := browse(e, "10.0.0.1", 50, epoch)
	end = attack(e, "203.0.113.99", 200, end)
	if mgr.Level() != ids.Medium {
		t.Fatalf("attack did not raise the level to medium: %s", mgr.Level())
	}
	mgr.Escalate(ids.High)
	mgr.Renew(end)
	end = browse(e, "10.0.0.2", 30, end) // the signal collapses
	end = browse(e, "10.0.0.2", int(hold/(2*time.Second)), end)
	mgr.Tick(end)
	if got := mgr.Level(); got != ids.Medium {
		t.Fatalf("level %s after high's hold lapsed, want medium", got)
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
	e, _, _ := newTestEngine(testConfig())
	var checkpoints []ProfileCheckpoint
	var events []ScoreEvent
	e.SetJournal(
		func(ev ScoreEvent) { events = append(events, ev) },
		func(cp ProfileCheckpoint) { checkpoints = append(checkpoints, cp) },
	)
	// browse spreads its samples over three paths: checkpointEvery
	// trained samples on each.
	end := browse(e, "10.0.0.1", 3*checkpointEvery, epoch)
	if len(checkpoints) != 3 {
		t.Fatalf("%d profile checkpoints journaled after %d trained samples on each of 3 paths, want 3",
			len(checkpoints), checkpointEvery)
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
	e, _, _ := newTestEngine(testConfig())
	const n = maxSources + 100 // distinct sources and paths past both caps
	t0 := epoch
	for i := 0; i < n; i++ {
		t0 = t0.Add(10 * time.Millisecond)
		e.ObserveRequest(Sample{
			Time: t0, Source: fmt.Sprintf("10.1.%d.%d", i/250, i%250),
			Path: fmt.Sprintf("/page%d", i), InputLen: 20,
		})
	}
	st := e.Stats()
	if st.Sources != maxSources || st.Resources != maxResources {
		t.Fatalf("profile maps: %d sources, %d resources; want the caps %d, %d",
			st.Sources, st.Resources, maxSources, maxResources)
	}
	if st.Samples != n {
		t.Fatalf("samples counter = %d, want %d", st.Samples, n)
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

// TestStepDownLosesToConcurrentRaise, engine half: the engine decides
// to raise the level to high, and a tick whose hold has lapsed steps
// medium down before the engine applies the raise (the score journal
// runs between the two). The raise then lands on the lowered level and
// stands.
func TestStepDownLosesToConcurrentRaise(t *testing.T) {
	cfg := testConfig()
	cfg.HighRaise = 1 // within reach of one probe from each of many sources
	e, mgr, _ := newTestEngine(cfg)
	end := browse(e, "10.0.0.1", 50, epoch)
	mgr.Set(ids.Medium)
	raced := false
	e.SetJournal(func(ev ScoreEvent) {
		if !raced && e.raises.Load() > 0 && mgr.Level() == ids.Medium { // decided, not yet applied
			raced = true
			mgr.Tick(ev.At.Add(hold))
			if got := mgr.Level(); got != ids.Low {
				t.Errorf("the racing tick left %s, want low", got)
			}
		}
	}, nil)
	// A fresh source per probe: each probe's score event runs the hook.
	for i := 0; i < 60; i++ {
		end = attack(e, fmt.Sprintf("203.0.113.%d", i), 1, end)
	}
	if !raced {
		t.Fatal("the engine never raised the level; the test raced nothing")
	}
	if got := mgr.Level(); got != ids.High {
		t.Fatalf("a racing step-down undid the engine's raise: level %s, want high", got)
	}
	for _, tr := range mgr.History() {
		if tr.From-tr.To > 1 {
			t.Fatalf("history holds a two-step drop %s->%s", tr.From, tr.To)
		}
	}
}
