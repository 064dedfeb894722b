package cluster

import (
	"testing"
	"time"

	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/netblock"
	"gaaapi/internal/statestore"
)

// scorerNode wires a node whose state includes a synchronous adaptive
// scoring engine, so score events and profile checkpoints flow through
// the same mirror-and-push machinery as the other record kinds.
func scorerNode(t *testing.T, lt *LoopTransport, clk *testClock, id string, peers ...string) (*adaptive.Engine, *netblock.Set, *Node) {
	t.Helper()
	blocks := netblock.NewSet()
	threat := ids.NewManager(ids.Low)
	cfg := adaptive.Defaults()
	cfg.MinSamples = 4
	cfg.BlockScore = 1.2 // a short burst scores ~1.4; the floor gates blocking
	eng := adaptive.New(cfg, threat, blocks)
	a, err := statestore.Attach(nil, statestore.Components{
		Blocks: blocks,
		Threat: threat,
		Scorer: eng,
	})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	n, err := New(Config{
		NodeID:    id,
		Peers:     peers,
		State:     a,
		Transport: lt,
		Clock:     clk.Now,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	lt.Register("loop://"+id, n)
	t.Cleanup(n.Stop)
	return eng, blocks, n
}

// attackSamples feeds n high-severity denied probes into eng.
func attackSamples(eng *adaptive.Engine, source string, n int, start time.Time) {
	for i := 0; i < n; i++ {
		eng.ObserveRequest(adaptive.Sample{
			Time:   start.Add(time.Duration(i) * 50 * time.Millisecond),
			Source: source, Path: "/cgi-bin/probe", Query: "x=%00",
			InputLen: 800, Denied: true, Severity: ids.SevHigh,
		})
	}
}

// A score earned on one node must reach the peer, and the block the
// origin issued from it must enforce there — the acceptance path for
// fleet-wide per-source enforcement.
func TestScoreEventsReplicateAndBlockOnPeer(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	ea, ba, na := scorerNode(t, lt, clk, "a", "loop://b")
	eb, bb, _ := scorerNode(t, lt, clk, "b", "loop://a")

	start := time.Date(2003, 5, 1, 9, 0, 0, 0, time.UTC)
	attackSamples(ea, "203.0.113.99", 12, start)
	if !ba.Blocked("203.0.113.99") {
		t.Fatalf("origin did not block the attacker (score %v)", ea.SourceScore("203.0.113.99"))
	}
	settle(clk, na)

	if !bb.Blocked("203.0.113.99") {
		t.Error("block not enforced on peer")
	}
	if eb.SourceScore("203.0.113.99") <= 0 {
		t.Error("score not merged on peer")
	}
}

// Split evidence: neither node alone reaches the evidence floor, but
// the additive sample-delta merge lets the fleet converge on a block.
func TestSplitEvidenceConvergesToBlock(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	ea, ba, na := scorerNode(t, lt, clk, "a", "loop://b")
	eb, bb, nb := scorerNode(t, lt, clk, "b", "loop://a")

	// 3 samples per node: below the MinSamples=4 floor individually.
	// ScoreEventDelta (0.5) makes each node journal its hot score with
	// its local sample delta; merged evidence is 6 >= 4.
	start := time.Date(2003, 5, 1, 9, 0, 0, 0, time.UTC)
	attackSamples(ea, "198.51.100.7", 3, start)
	attackSamples(eb, "198.51.100.7", 3, start)
	settle(clk, na, nb) // evidence flows both ways

	if !ba.Blocked("198.51.100.7") || !bb.Blocked("198.51.100.7") {
		t.Fatalf("split evidence blocked a=%v b=%v, want both",
			ba.Blocked("198.51.100.7"), bb.Blocked("198.51.100.7"))
	}
}

// Profile checkpoints replicate so a fresh node starts with trained
// baselines instead of scoring blind until MinTraining.
func TestProfileCheckpointsReplicate(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	ea, _, na := scorerNode(t, lt, clk, "a", "loop://b")
	eb, _, _ := scorerNode(t, lt, clk, "b", "loop://a")

	start := time.Date(2003, 5, 1, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		ea.ObserveRequest(adaptive.Sample{
			Time:   start.Add(time.Duration(i) * time.Second),
			Source: "10.0.0.1", Path: "/index.html", InputLen: 20,
		})
	}
	settle(clk, na)
	for _, cp := range eb.Profiles() {
		if cp.Resource == "/index.html" && cp.N >= 128 {
			return
		}
	}
	t.Fatalf("profile checkpoint not replicated: %+v", eb.Profiles())
}
