package statestore

import (
	"encoding/json"
	"testing"
	"time"

	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/netblock"
)

func scorerComponents(clock func() time.Time) Components {
	c := Components{
		Blocks: netblock.NewSet(netblock.WithClock(clock)),
		Threat: ids.NewManager(ids.Low),
		Clock:  clock,
	}
	cfg := adaptive.Defaults()
	cfg.Synchronous = true
	cfg.MinSamples = 4
	c.Scorer = adaptive.New(cfg, c.Threat, c.Blocks)
	return c
}

// feedAttack pushes high-severity samples until the engine journals.
func feedAttack(c Components, source string, n int, start time.Time) {
	for i := 0; i < n; i++ {
		c.Scorer.ObserveRequest(adaptive.Sample{
			Time:   start.Add(time.Duration(i) * 50 * time.Millisecond),
			Source: source, Path: "/cgi-bin/probe", Query: "x=%00",
			InputLen: 800, Denied: true, Severity: ids.SevHigh,
		})
	}
}

func TestScoreAndProfileRecordsPersistAcrossRestart(t *testing.T) {
	clock := &fixedClock{now: time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)}
	dir := t.TempDir()

	c1 := scorerComponents(clock.Now)
	attach(t, dir, c1)

	// Train a resource past a checkpoint and score up an attacker.
	for i := 0; i < 200; i++ {
		c1.Scorer.ObserveRequest(adaptive.Sample{
			Time:   clock.now.Add(time.Duration(i) * time.Second),
			Source: "10.0.0.1", Path: "/index.html", InputLen: 20,
		})
	}
	feedAttack(c1, "203.0.113.99", 12, clock.now.Add(time.Hour))
	wantScore := c1.Scorer.SourceScore("203.0.113.99")
	if wantScore == 0 {
		t.Fatal("attack produced no score")
	}

	// Kill and restart: the score evidence and trained profile return.
	c2 := scorerComponents(clock.Now)
	_, a2 := attach(t, dir, c2)
	sum := a2.Restored()
	if sum.Scores == 0 {
		t.Fatalf("no score entries restored: %+v", sum)
	}
	if sum.Profiles == 0 {
		t.Fatalf("no profiles restored: %+v", sum)
	}
	if got := c2.Scorer.SourceScore("203.0.113.99"); got < wantScore-0.75 {
		t.Fatalf("restored attacker score %v, origin journaled around %v", got, wantScore)
	}
	profiles := c2.Scorer.Profiles()
	if len(profiles) == 0 || profiles[0].Resource != "/index.html" {
		t.Fatalf("trained profile not restored: %+v", profiles)
	}
}

func TestMirrorSeesScoreRecords(t *testing.T) {
	clock := &fixedClock{now: time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)}
	c := scorerComponents(clock.Now)
	a, err := Attach(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	a.SetMirror(func(kind string, data json.RawMessage) {
		if len(data) == 0 {
			t.Fatalf("mirror got empty payload for %s", kind)
		}
		kinds[kind]++
	})
	for i := 0; i < 200; i++ {
		c.Scorer.ObserveRequest(adaptive.Sample{
			Time:   clock.now.Add(time.Duration(i) * time.Second),
			Source: "10.0.0.1", Path: "/index.html", InputLen: 20,
		})
	}
	feedAttack(c, "203.0.113.99", 12, clock.now.Add(time.Hour))
	if kinds[KindScore] == 0 {
		t.Fatalf("mirror saw no %s records: %v", KindScore, kinds)
	}
	if kinds[KindProfile] == 0 {
		t.Fatalf("mirror saw no %s records: %v", KindProfile, kinds)
	}
}

func TestApplyRemoteScoreMergesAndBlocks(t *testing.T) {
	clock := &fixedClock{now: time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)}
	c := scorerComponents(clock.Now)
	a, err := Attach(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	var mirrored int
	a.SetMirror(func(kind string, data json.RawMessage) {
		// A remote score merge may legitimately trigger a LOCAL block,
		// which mirrors as a block record; the score record itself must
		// not echo.
		if kind == KindScore || kind == KindProfile {
			mirrored++
		}
	})

	ev, _ := json.Marshal(adaptive.ScoreEvent{
		Source: "203.0.113.99", Score: 2.5, Samples: 10, At: clock.now,
	})
	changed, err := a.ApplyRemote(Record{Seq: 1, Kind: KindScore, Data: ev})
	if err != nil || !changed {
		t.Fatalf("ApplyRemote(score) = %v, %v", changed, err)
	}
	if mirrored != 0 {
		t.Fatal("remote score record echoed to the mirror")
	}
	// Merged evidence (score 2.5 >= BlockScore, 10 samples >= floor)
	// must enforce locally even though this node never saw the source.
	if !c.Blocks.Blocked("203.0.113.99") {
		t.Fatal("merged remote evidence did not block the source")
	}

	cp, _ := json.Marshal(adaptive.ProfileCheckpoint{
		Resource: "/login", N: 50, MeanLen: 24, M2Len: 100,
		Classes: []float64{0.7, 0, 0.1, 0.2, 0, 0, 0}, At: clock.now,
	})
	changed, err = a.ApplyRemote(Record{Seq: 2, Kind: KindProfile, Data: cp})
	if err != nil || !changed {
		t.Fatalf("ApplyRemote(profile) = %v, %v", changed, err)
	}
	// Re-applying the same checkpoint is a no-op (max-N wins).
	changed, err = a.ApplyRemote(Record{Seq: 3, Kind: KindProfile, Data: cp})
	if err != nil || changed {
		t.Fatalf("duplicate profile checkpoint reported change: %v, %v", changed, err)
	}
}

func TestSnapshotRoundTripMergesScores(t *testing.T) {
	clock := &fixedClock{now: time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)}
	origin := scorerComponents(clock.Now)
	ao, err := Attach(nil, origin)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		origin.Scorer.ObserveRequest(adaptive.Sample{
			Time:   clock.now.Add(time.Duration(i) * time.Second),
			Source: "10.0.0.1", Path: "/index.html", InputLen: 20,
		})
	}
	feedAttack(origin, "203.0.113.99", 12, clock.now.Add(time.Hour))
	snap, err := ao.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	follower := scorerComponents(clock.Now)
	af, err := Attach(nil, follower)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := af.ApplyRemoteSnapshot(snap)
	if err != nil || applied == 0 {
		t.Fatalf("ApplyRemoteSnapshot = %d, %v", applied, err)
	}
	if follower.Scorer.SourceScore("203.0.113.99") == 0 {
		t.Fatal("snapshot did not carry the attacker score")
	}
	// Idempotent: re-applying the same snapshot merges nothing new
	// (max-wins on both score and samples — no double-counted evidence).
	applied, err = af.ApplyRemoteSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range follower.Scorer.Scores() {
		for _, orig := range origin.Scorer.Scores() {
			if ev.Source == orig.Source && ev.Samples > orig.Samples {
				t.Fatalf("snapshot re-merge inflated %s evidence: %d > %d",
					ev.Source, ev.Samples, orig.Samples)
			}
		}
	}
	_ = applied
}

// TestRecoveryCompactionUnderScorerJournal: a profile checkpoint whose
// journal append triggers compaction must not be emitted under the
// engine lock — compaction snapshots the engine through that same lock
// (-adaptive with -state-dir deadlocked the scorer at the first
// compaction). The feed runs under a deadline because the failure mode
// is a hang.
func TestRecoveryCompactionUnderScorerJournal(t *testing.T) {
	clock := &fixedClock{now: time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)}
	c := Components{
		Blocks: netblock.NewSet(netblock.WithClock(clock.Now)),
		Threat: ids.NewManager(ids.Low),
		Clock:  clock.Now,
	}
	cfg := adaptive.Defaults()
	cfg.Synchronous = true
	cfg.CheckpointEvery = 1
	c.Scorer = adaptive.New(cfg, c.Threat, c.Blocks)

	s := openStore(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: 8, Clock: clock.Now})
	if _, err := Attach(s, c); err != nil {
		t.Fatal(err)
	}

	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for i := 0; i < 20; i++ { // one checkpoint record each: past the 8-record boundary twice
			c.Scorer.ObserveRequest(adaptive.Sample{
				Time:   clock.now.Add(time.Duration(i) * time.Second),
				Source: "10.0.0.1", Path: "/index.html", InputLen: 20,
			})
		}
	}()
	select {
	case <-fed:
	case <-time.After(10 * time.Second):
		t.Fatal("scorer blocked: journaling a checkpoint under the engine lock deadlocks against compaction")
	}
	if st := s.Stats(); st.Snapshots < 1 {
		t.Errorf("Snapshots = %d after 20 checkpoint records with SnapshotEvery=8, want >= 1", st.Snapshots)
	}
}
