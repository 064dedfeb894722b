package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
	"gaaapi/internal/netblock"
	"gaaapi/internal/retry"
	"gaaapi/internal/statestore"
)

// testState is one node's adaptive state for in-process tests: the
// real components attached to a store-less Adaptive (journal hooks and
// mirror installed, no disk).
type testState struct {
	blocks   *netblock.Set
	threat   *ids.Manager
	counters *conditions.Counters
	groups   *groups.Store
	adaptive *statestore.Adaptive
}

func newTestState(t *testing.T) *testState {
	t.Helper()
	s := &testState{
		blocks:   netblock.NewSet(),
		threat:   ids.NewManager(ids.Low),
		counters: conditions.NewCounters(time.Now),
		groups:   groups.NewStore(),
	}
	a, err := statestore.Attach(nil, statestore.Components{
		Blocks:   s.blocks,
		Threat:   s.threat,
		Counters: s.counters,
		Groups:   s.groups,
	})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	s.adaptive = a
	return s
}

// testNode wires a node over a shared LoopTransport with a fast push
// cadence so tests converge in milliseconds.
func testNode(t *testing.T, lt *LoopTransport, id string, peers ...string) (*testState, *Node) {
	t.Helper()
	st := newTestState(t)
	n, err := New(Config{
		NodeID:       id,
		Peers:        peers,
		State:        st.adaptive,
		Transport:    lt,
		PushInterval: 5 * time.Millisecond,
		PushTimeout:  200 * time.Millisecond,
		Backoff: retry.Policy{
			BaseDelay:  time.Millisecond,
			Multiplier: 2,
			MaxDelay:   10 * time.Millisecond,
			Jitter:     1,
		},
		BreakerCooldown: 10 * time.Millisecond,
		DegradedAfter:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	lt.Register("loop://"+id, n)
	t.Cleanup(n.Stop)
	return st, n
}

// eventually polls cond for up to two seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReplicatesBlockToPeer(t *testing.T) {
	lt := NewLoopTransport()
	sa, na := testNode(t, lt, "a", "loop://b")
	sb, _ := testNode(t, lt, "b", "loop://a")
	na.Start()

	sa.blocks.Block("203.0.113.9", 30*time.Minute)
	eventually(t, "block replicated to b", func() bool { return sb.blocks.Blocked("203.0.113.9") })
	if !na.CaughtUp() {
		eventually(t, "a caught up", na.CaughtUp)
	}
}

func TestReplicatesThreatGroupsCounters(t *testing.T) {
	lt := NewLoopTransport()
	sa, na := testNode(t, lt, "a", "loop://b")
	sb, _ := testNode(t, lt, "b", "loop://a")
	na.Start()

	sa.threat.Set(ids.Medium)
	sa.groups.Add("BadGuys", "203.0.113.9")
	sa.counters.Add("login_attempt|203.0.113.9")

	eventually(t, "threat replicated", func() bool { return sb.threat.Level() == ids.Medium })
	eventually(t, "group replicated", func() bool { return sb.groups.Contains("BadGuys", "203.0.113.9") })
	eventually(t, "counter replicated", func() bool {
		return sb.counters.CountSince("login_attempt|203.0.113.9", time.Hour) == 1
	})
}

func TestThreatMergeIsMaxWins(t *testing.T) {
	lt := NewLoopTransport()
	sa, na := testNode(t, lt, "a", "loop://b")
	sb, nb := testNode(t, lt, "b", "loop://a")
	na.Start()
	nb.Start()

	sb.threat.Set(ids.High)
	eventually(t, "b's high level on a", func() bool { return sa.threat.Level() == ids.High })

	// A late medium transition from a must not pull b back down.
	sa.threat.Set(ids.Medium) // local de-escalation on a... but a is already High
	if sb.threat.Level() != ids.High {
		t.Fatalf("b de-escalated to %v by replication", sb.threat.Level())
	}
}

func TestPartitionHealConverges(t *testing.T) {
	lt := NewLoopTransport()
	sa, na := testNode(t, lt, "a", "loop://b")
	sb, nb := testNode(t, lt, "b", "loop://a")
	na.Start()
	nb.Start()

	// Partition both directions.
	lt.Cut("loop://a")
	lt.Cut("loop://b")

	// Diverge: each side blocks and blacklists its own attacker.
	sa.blocks.Block("203.0.113.1", time.Hour)
	sa.groups.Add("BadGuys", "203.0.113.1")
	sb.blocks.Block("203.0.113.2", 2*time.Hour)
	sb.groups.Add("BadGuys", "203.0.113.2")
	sb.threat.Set(ids.Medium)

	time.Sleep(30 * time.Millisecond) // let pushes fail for a while
	if sa.blocks.Blocked("203.0.113.2") || sb.blocks.Blocked("203.0.113.1") {
		t.Fatal("state leaked across a cut partition")
	}

	lt.Heal("loop://a")
	lt.Heal("loop://b")

	eventually(t, "a has b's block", func() bool { return sa.blocks.Blocked("203.0.113.2") })
	eventually(t, "b has a's block", func() bool { return sb.blocks.Blocked("203.0.113.1") })
	eventually(t, "groups converged", func() bool {
		return sa.groups.Contains("BadGuys", "203.0.113.2") && sb.groups.Contains("BadGuys", "203.0.113.1")
	})
	eventually(t, "threat converged", func() bool { return sa.threat.Level() == ids.Medium })
	eventually(t, "identical block lists", func() bool {
		return fmt.Sprint(sa.blocks.List()) == fmt.Sprint(sb.blocks.List())
	})
	eventually(t, "both caught up", func() bool { return na.CaughtUp() && nb.CaughtUp() })
}

func TestBlockDeadlineMergeLaterWins(t *testing.T) {
	lt := NewLoopTransport()
	sa, na := testNode(t, lt, "a", "loop://b")
	sb, nb := testNode(t, lt, "b", "loop://a")
	na.Start()
	nb.Start()

	// Both nodes block the same IP with different deadlines while
	// partitioned; after healing both must settle on the longer one —
	// not swap deadlines forever.
	lt.Cut("loop://a")
	lt.Cut("loop://b")
	sa.blocks.Block("203.0.113.7", 10*time.Minute)
	sb.blocks.Block("203.0.113.7", 24*time.Hour)
	lt.Heal("loop://a")
	lt.Heal("loop://b")

	eventually(t, "both caught up", func() bool { return na.CaughtUp() && nb.CaughtUp() })
	wantA := sa.blocks.Entries()
	wantB := sb.blocks.Entries()
	if len(wantA) != 1 || len(wantB) != 1 {
		t.Fatalf("entries: a=%v b=%v", wantA, wantB)
	}
	if !wantA[0].Expiry.Equal(wantB[0].Expiry) {
		t.Fatalf("deadlines did not converge: a=%v b=%v", wantA[0].Expiry, wantB[0].Expiry)
	}
	// The longer deadline (about a day out) must have won on a.
	if time.Until(wantA[0].Expiry) < time.Hour {
		t.Fatalf("shorter deadline won: %v", wantA[0].Expiry)
	}
}

func TestMirrorIsNonBlockingWithHungPeer(t *testing.T) {
	lt := NewLoopTransport()
	sa, na := testNode(t, lt, "a", "loop://b")
	_ = newTestState(t) // b's state never even registered: peer is a black hole
	lt.Hang("loop://b")
	na.Start()

	// With the peer hanging every push, local mutations must still be
	// instant: the mirror tap is an in-memory append.
	for i := 0; i < 100; i++ {
		start := time.Now()
		sa.blocks.Block(fmt.Sprintf("203.0.113.%d", i%250), time.Minute)
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Fatalf("hot-path mutation took %v with a hung peer", d)
		}
	}
	st := na.Stats()
	if st.Seq < 100 {
		t.Fatalf("replication log did not record mutations: %+v", st)
	}
}

func TestDegradedPeerReported(t *testing.T) {
	lt := NewLoopTransport()
	sa, na := testNode(t, lt, "a", "loop://b")
	lt.Cut("loop://b")
	na.Start()

	sa.blocks.Block("203.0.113.9", time.Minute)
	eventually(t, "peer reported degraded", func() bool {
		st := na.Stats()
		return st.DegradedPeers == 1 && st.MaxLag > 0 && st.PushFailures > 0
	})
}

func TestCorruptPushDoesNotPanicOrApply(t *testing.T) {
	lt := NewLoopTransport()
	sb, nb := testNode(t, lt, "b")

	// Garbage bytes: rejected outright, state untouched.
	if _, err := nb.Receive([]byte("not a wal frame at all")); err == nil {
		t.Fatal("garbage push accepted")
	}
	if len(sb.blocks.List()) != 0 {
		t.Fatalf("garbage push mutated state: %v", sb.blocks.List())
	}

	// A valid batch truncated mid-frame: the valid prefix applies, the
	// ack reports corruption, nothing panics.
	full := encodeTestBatch(t, "evil", 7, []statestore.Record{
		{Seq: 1, Kind: statestore.KindBlock, Data: mustJSON(t, netblock.Event{Addr: "203.0.113.50", Expiry: time.Now().Add(time.Hour)})},
		{Seq: 2, Kind: statestore.KindBlock, Data: mustJSON(t, netblock.Event{Addr: "203.0.113.51", Expiry: time.Now().Add(time.Hour)})},
	})
	ack, err := nb.Receive(full[:len(full)-5])
	if err != nil {
		t.Fatalf("truncated push rejected outright: %v", err)
	}
	if !ack.Corrupt {
		t.Fatal("truncated push not flagged corrupt")
	}
	if !sb.blocks.Blocked("203.0.113.50") {
		t.Fatal("valid prefix of truncated push not applied")
	}
	if sb.blocks.Blocked("203.0.113.51") {
		t.Fatal("truncated record applied")
	}
	if st := nb.Stats(); st.CorruptFrames == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}

	// A CRC-valid frame whose payload is garbage for its kind: the
	// batch stops there, the ack says how far it got.
	bad := encodeTestBatch(t, "evil", 7, []statestore.Record{
		{Seq: 3, Kind: statestore.KindBlock, Data: json.RawMessage(`{"addr": 12}`)},
	})
	ack, err = nb.Receive(bad)
	if err != nil {
		t.Fatalf("lying payload rejected outright: %v", err)
	}
	if !ack.Corrupt || ack.Acked != 1 {
		t.Fatalf("lying payload ack = %+v, want corrupt with acked=1", ack)
	}
}

func TestSelfPushDropped(t *testing.T) {
	lt := NewLoopTransport()
	sb, nb := testNode(t, lt, "b")
	batch := encodeTestBatch(t, "b", nb.Epoch(), []statestore.Record{
		{Seq: 1, Kind: statestore.KindBlock, Data: mustJSON(t, netblock.Event{Addr: "203.0.113.60"})},
	})
	ack, err := nb.Receive(batch)
	if err != nil {
		t.Fatalf("self push errored: %v", err)
	}
	if ack.Acked != 1 {
		t.Fatalf("self push not quiet-acked: %+v", ack)
	}
	if sb.blocks.Blocked("203.0.113.60") {
		t.Fatal("node applied its own looped-back record")
	}
	if st := nb.Stats(); st.SelfDrops != 1 {
		t.Fatalf("self drop not counted: %+v", st)
	}
}

func TestStaleEpochDropped(t *testing.T) {
	lt := NewLoopTransport()
	sb, nb := testNode(t, lt, "b")
	rec := statestore.Record{Seq: 1, Kind: statestore.KindBlock, Data: mustJSON(t, netblock.Event{Addr: "203.0.113.61"})}

	if _, err := nb.Receive(encodeTestBatch(t, "a", 100, []statestore.Record{rec})); err != nil {
		t.Fatalf("first epoch push: %v", err)
	}
	if !sb.blocks.Blocked("203.0.113.61") {
		t.Fatal("first epoch record not applied")
	}

	// A zombie sender at a lower epoch is quiet-acked, never applied.
	zombie := statestore.Record{Seq: 9, Kind: statestore.KindBlock, Data: mustJSON(t, netblock.Event{Addr: "203.0.113.62"})}
	ack, err := nb.Receive(encodeTestBatch(t, "a", 50, []statestore.Record{zombie}))
	if err != nil {
		t.Fatalf("stale epoch push errored: %v", err)
	}
	if ack.Acked != 9 {
		t.Fatalf("stale epoch not quiet-acked: %+v", ack)
	}
	if sb.blocks.Blocked("203.0.113.62") {
		t.Fatal("stale-epoch record applied")
	}

	// A restart (higher epoch) resets the applied cursor: seq 1 in the
	// new epoch applies even though seq 1 was seen in the old one.
	again := statestore.Record{Seq: 1, Kind: statestore.KindBlock, Data: mustJSON(t, netblock.Event{Addr: "203.0.113.63"})}
	if _, err := nb.Receive(encodeTestBatch(t, "a", 200, []statestore.Record{again})); err != nil {
		t.Fatalf("new epoch push: %v", err)
	}
	if !sb.blocks.Blocked("203.0.113.63") {
		t.Fatal("new-epoch record not applied after cursor reset")
	}
}

func TestDuplicateDeliveryIdempotent(t *testing.T) {
	lt := NewLoopTransport()
	sb, nb := testNode(t, lt, "b")
	batch := encodeTestBatch(t, "a", 100, []statestore.Record{
		{Seq: 1, Kind: statestore.KindGroup, Data: mustJSON(t, groups.Event{Group: "BadGuys", Member: "x"})},
	})
	for i := 0; i < 3; i++ {
		if _, err := nb.Receive(batch); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
	}
	if got := sb.groups.Members("BadGuys"); len(got) != 1 {
		t.Fatalf("duplicate deliveries changed state: %v", got)
	}
	if st := nb.Stats(); st.RecordsDuplicate < 2 {
		t.Fatalf("duplicates not counted: %+v", st)
	}
}

func TestSnapshotResyncWhenLogTrimmed(t *testing.T) {
	lt := NewLoopTransport()
	sa := newTestState(t)
	na, err := New(Config{
		NodeID:       "a",
		Peers:        []string{"loop://b"},
		State:        sa.adaptive,
		Transport:    lt,
		PushInterval: 5 * time.Millisecond,
		PushTimeout:  200 * time.Millisecond,
		MaxLog:       4, // tiny log: a cut peer falls behind the horizon fast
		Backoff:      retry.Policy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(na.Stop)
	sb, _ := testNode(t, lt, "b")

	lt.Cut("loop://b")
	na.Start()
	for i := 0; i < 20; i++ {
		sa.blocks.Block(fmt.Sprintf("203.0.113.%d", 100+i), time.Hour)
	}
	sa.threat.Set(ids.Medium)
	sa.groups.Add("BadGuys", "203.0.113.100")
	eventually(t, "log trimmed", func() bool { return na.Stats().Horizon > 0 })

	lt.Heal("loop://b")
	eventually(t, "peer resynced via snapshot", func() bool {
		return sb.blocks.Blocked("203.0.113.100") && sb.blocks.Blocked("203.0.113.119") &&
			sb.threat.Level() == ids.Medium && sb.groups.Contains("BadGuys", "203.0.113.100")
	})
	// The loop transport applies the push before Send returns to the
	// pusher, which counts it only then.
	eventually(t, "snapshot counted", func() bool { return na.Stats().SnapshotsSent > 0 })
	eventually(t, "a caught up after resync", na.CaughtUp)
}

func TestNoReplicationLoop(t *testing.T) {
	lt := NewLoopTransport()
	sa, na := testNode(t, lt, "a", "loop://b")
	sb, nb := testNode(t, lt, "b", "loop://a")
	na.Start()
	nb.Start()

	sa.blocks.Block("203.0.113.77", time.Hour)
	eventually(t, "replicated", func() bool { return sb.blocks.Blocked("203.0.113.77") })

	// Give any echo a chance to circulate, then check b never re-shipped
	// a's record: b's own log holds only b-originated mutations (none).
	time.Sleep(50 * time.Millisecond)
	if st := nb.Stats(); st.Seq != 0 {
		t.Fatalf("b re-mirrored a remote record into its own log: %+v", st)
	}
}

func TestHTTPTransportAndHandler(t *testing.T) {
	lt := NewLoopTransport() // only for building nodes; transport under test is HTTP
	sa, _ := testNode(t, lt, "a")
	_ = sa
	sb, nb := testNode(t, lt, "b")

	batch := encodeTestBatch(t, "a", 42, []statestore.Record{
		{Seq: 1, Kind: statestore.KindBlock, Data: mustJSON(t, netblock.Event{Addr: "203.0.113.88", Expiry: time.Now().Add(time.Hour)})},
	})

	m := http.NewServeMux()
	m.Handle(ReplicatePath, nb.Handler())
	mux := httptest.NewServer(m)
	defer mux.Close()
	resp, err := NewHTTPTransport(mux.Client()).Send(context.Background(), mux.URL, batch)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	var ack Ack
	if err := json.Unmarshal(resp, &ack); err != nil {
		t.Fatalf("ack decode: %v (%q)", err, resp)
	}
	if ack.Node != "b" || ack.Acked != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	if !sb.blocks.Blocked("203.0.113.88") {
		t.Fatal("HTTP push not applied")
	}

	// GET is rejected.
	r, err := mux.Client().Get(mux.URL + ReplicatePath)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != 405 {
		t.Fatalf("GET status = %d, want 405", r.StatusCode)
	}
}

func TestReceiveRequiresHello(t *testing.T) {
	lt := NewLoopTransport()
	_, nb := testNode(t, lt, "b")
	frames, err := statestore.EncodeFrames([]statestore.Record{
		{Seq: 1, Kind: statestore.KindBlock, Data: mustJSON(t, netblock.Event{Addr: "203.0.113.90"})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nb.Receive(frames); err == nil || !strings.Contains(err.Error(), "hello") {
		t.Fatalf("hello-less push accepted: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	st := newTestState(t)
	if _, err := New(Config{NodeID: "a"}); err == nil {
		t.Fatal("nil state accepted")
	}
	n, err := New(Config{NodeID: "a", State: st.adaptive})
	if err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	if n.Epoch() == 0 {
		t.Fatal("epoch not derived")
	}
	n.Stop()
	n.Stop() // idempotent
}

// encodeTestBatch frames hello + records as a peer with the given
// identity would.
func encodeTestBatch(t *testing.T, node string, epoch uint64, recs []statestore.Record) []byte {
	t.Helper()
	h := mustJSON(t, hello{Node: node, Epoch: epoch})
	batch := append([]statestore.Record{{Kind: KindHello, Data: h}}, recs...)
	frames, err := statestore.EncodeFrames(batch)
	if err != nil {
		t.Fatalf("EncodeFrames: %v", err)
	}
	return frames
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}
