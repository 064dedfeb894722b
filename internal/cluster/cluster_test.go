package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
	"gaaapi/internal/netblock"
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

// testClock is the manually advanced clock a test's nodes share:
// breakers, backoff and the degraded window read it, and the test
// steps Push at its instant.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Date(2003, 5, 1, 9, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// retryWait is how far a test advances the clock so that a peer that
// failed is due again: past the breaker's cooldown and the backoff cap.
const retryWait = breakerCooldown + backoffCap

// testNode wires a node over a shared LoopTransport on clk.
func testNode(t *testing.T, lt *LoopTransport, clk *testClock, id string, peers ...string) (*testState, *Node) {
	t.Helper()
	st := newTestState(t)
	n, err := New(Config{
		NodeID:    id,
		Peers:     peers,
		State:     st.adaptive,
		Transport: lt,
		Clock:     clk.Now,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	lt.Register("loop://"+id, n)
	t.Cleanup(n.Stop)
	return st, n
}

// settle steps every node at the clock's instant until a round ships
// nothing.
func settle(clk *testClock, nodes ...*Node) {
	for {
		shipped := 0
		for _, n := range nodes {
			shipped += n.Push(clk.Now())
		}
		if shipped == 0 {
			return
		}
	}
}

func TestReplicatesBlockToPeer(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	sb, _ := testNode(t, lt, clk, "b", "loop://a")

	sa.blocks.Block("203.0.113.9", 30*time.Minute)
	if got := na.Push(clk.Now()); got != 1 {
		t.Fatalf("Push acknowledged %d records, want 1", got)
	}
	if !sb.blocks.Blocked("203.0.113.9") {
		t.Fatal("block not replicated to b")
	}
	if !na.CaughtUp() {
		t.Fatalf("a not caught up: %+v", na.Stats())
	}
	if got := na.Push(clk.Now()); got != 0 {
		t.Fatalf("a caught-up Push acknowledged %d records", got)
	}
}

func TestReplicatesThreatGroupsCounters(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	sb, _ := testNode(t, lt, clk, "b", "loop://a")

	sa.threat.Set(ids.Medium)
	sa.groups.Add("BadGuys", "203.0.113.9")
	sa.counters.Add("login_attempt|203.0.113.9")
	settle(clk, na)

	if sb.threat.Level() != ids.Medium {
		t.Errorf("threat on b = %v, want medium", sb.threat.Level())
	}
	if !sb.groups.Contains("BadGuys", "203.0.113.9") {
		t.Error("group not replicated")
	}
	if got := sb.counters.CountSince("login_attempt|203.0.113.9", time.Hour); got != 1 {
		t.Errorf("counter on b = %d, want 1", got)
	}
}

func TestThreatMergeIsMaxWins(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	sb, nb := testNode(t, lt, clk, "b", "loop://a")

	sb.threat.Set(ids.High)
	settle(clk, na, nb)
	if sa.threat.Level() != ids.High {
		t.Fatalf("b's high level not on a: %v", sa.threat.Level())
	}

	// A later medium transition from a must not pull b back down.
	sa.threat.Set(ids.Medium)
	settle(clk, na, nb)
	if sb.threat.Level() != ids.High {
		t.Fatalf("b de-escalated to %v by replication", sb.threat.Level())
	}
}

func TestPartitionHealConverges(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	sb, nb := testNode(t, lt, clk, "b", "loop://a")

	// Partition both directions.
	lt.Cut("loop://a")
	lt.Cut("loop://b")

	// Diverge: each side blocks and blacklists its own attacker.
	sa.blocks.Block("203.0.113.1", time.Hour)
	sa.groups.Add("BadGuys", "203.0.113.1")
	sb.blocks.Block("203.0.113.2", 2*time.Hour)
	sb.groups.Add("BadGuys", "203.0.113.2")
	sb.threat.Set(ids.Medium)

	settle(clk, na, nb) // both pushes fail
	if sa.blocks.Blocked("203.0.113.2") || sb.blocks.Blocked("203.0.113.1") {
		t.Fatal("state leaked across a cut partition")
	}
	if st := na.Stats(); st.PushFailures == 0 || st.Peers[0].Failures != 1 {
		t.Fatalf("a's failed push not recorded: %+v", st)
	}

	lt.Heal("loop://a")
	lt.Heal("loop://b")
	settle(clk, na, nb) // both peers are still backing off
	if sa.blocks.Blocked("203.0.113.2") {
		t.Fatal("a retried before its backoff elapsed")
	}
	clk.Advance(retryWait)
	settle(clk, na, nb)

	if !sa.blocks.Blocked("203.0.113.2") || !sb.blocks.Blocked("203.0.113.1") {
		t.Fatal("blocks not exchanged after heal")
	}
	if !sa.groups.Contains("BadGuys", "203.0.113.2") || !sb.groups.Contains("BadGuys", "203.0.113.1") {
		t.Fatal("groups not converged")
	}
	if sa.threat.Level() != ids.Medium {
		t.Fatalf("threat on a = %v, want medium", sa.threat.Level())
	}
	if fmt.Sprint(sa.blocks.List()) != fmt.Sprint(sb.blocks.List()) {
		t.Fatalf("block lists differ: a=%v b=%v", sa.blocks.List(), sb.blocks.List())
	}
	if !na.CaughtUp() || !nb.CaughtUp() {
		t.Fatal("not caught up after heal")
	}
}

func TestBlockDeadlineMergeLaterWins(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	sb, nb := testNode(t, lt, clk, "b", "loop://a")

	// Both nodes block the same IP with different deadlines before
	// either pushes; once they do, both must settle on the longer one —
	// not swap deadlines forever.
	sa.blocks.Block("203.0.113.7", 10*time.Minute)
	sb.blocks.Block("203.0.113.7", 24*time.Hour)
	settle(clk, na, nb)

	if !na.CaughtUp() || !nb.CaughtUp() {
		t.Fatal("not caught up")
	}
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

// TestStartShipsOnNudge drives replication with Start's goroutines: a
// mutation nudges a's pusher, and b's handler signals the delivery.
func TestStartShipsOnNudge(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	sb, nb := testNode(t, lt, clk, "b")
	delivered := make(chan struct{}, 1)
	lt.RegisterFunc("loop://b", func(frames []byte) ([]byte, error) {
		ack, err := nb.Receive(frames)
		if err != nil {
			return nil, err
		}
		select {
		case delivered <- struct{}{}:
		default:
		}
		return json.Marshal(ack)
	})
	na.Start()

	sa.blocks.Block("203.0.113.9", 30*time.Minute)
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("Start's pusher never delivered the block")
	}
	if !sb.blocks.Blocked("203.0.113.9") {
		t.Fatal("delivered push did not block on b")
	}
}

// hookTransport signals each send before handing it to the loop
// transport.
type hookTransport struct {
	*LoopTransport
	sending chan struct{}
}

func (h hookTransport) Send(ctx context.Context, url string, frames []byte) ([]byte, error) {
	select {
	case h.sending <- struct{}{}:
	default:
	}
	return h.LoopTransport.Send(ctx, url, frames)
}

// TestStopCancelsHungPush: Stop ends a push hung on a slow peer instead
// of waiting out the push timeout.
func TestStopCancelsHungPush(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	lt.Hang("loop://b")
	ht := hookTransport{LoopTransport: lt, sending: make(chan struct{}, 1)}
	sa := newTestState(t)
	na, err := New(Config{NodeID: "a", Peers: []string{"loop://b"}, State: sa.adaptive, Transport: ht, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	na.Start()
	sa.blocks.Block("203.0.113.9", time.Minute)
	select {
	case <-ht.sending:
	case <-time.After(10 * time.Second):
		t.Fatal("Start's pusher never sent")
	}

	start := time.Now()
	na.Stop()
	if d := time.Since(start); d >= pushTimeout/2 {
		t.Fatalf("Stop took %v with a hung push (push timeout %v)", d, pushTimeout)
	}
	if got := na.Stats().Peers[0].LastError; got != "context canceled" {
		t.Fatalf("LastError = %q, want context canceled", got)
	}
	if got := na.Push(clk.Now()); got != 0 || na.Stats().Pushes != 1 {
		t.Fatalf("Push after Stop shipped: acked %d, %+v", got, na.Stats())
	}
}

func TestMirrorIsNonBlockingWithHungPeer(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	lt.Hang("loop://b") // the peer is a black hole
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
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	lt.Cut("loop://b")

	sa.blocks.Block("203.0.113.9", time.Minute)
	na.Push(clk.Now())
	st := na.Stats()
	if st.MaxLag == 0 || st.PushFailures == 0 || st.DegradedPeers != 0 {
		t.Fatalf("after one failed push: %+v", st)
	}
	clk.Advance(degradedAfter + time.Millisecond)
	if st := na.Stats(); st.DegradedPeers != 1 {
		t.Fatalf("peer not degraded past the window: %+v", st)
	}
}

// TestDegradedAtTheWindowsEdge pins the degraded window's boundary: a
// failing peer with pending records is not degraded after exactly
// degradedAfter without a successful push, and is one nanosecond later.
func TestDegradedAtTheWindowsEdge(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	lt.Cut("loop://b")

	sa.blocks.Block("203.0.113.9", time.Minute)
	na.Push(clk.Now())
	clk.Advance(degradedAfter)
	if st := na.Stats(); st.DegradedPeers != 0 || st.Peers[0].Degraded {
		t.Fatalf("peer degraded at exactly the window: %+v", st)
	}
	clk.Advance(time.Nanosecond)
	if st := na.Stats(); st.DegradedPeers != 1 || !st.Peers[0].Degraded {
		t.Fatalf("peer not degraded a nanosecond past the window: %+v", st)
	}
}

// originApplied is n's applied cursor for origin ("": none yet).
func originApplied(n *Node, origin string) uint64 {
	for _, o := range n.Stats().Origins {
		if o.Node == origin {
			return o.Applied
		}
	}
	return 0
}

// TestDropDuplicateReorderConverge: b's inbound link loses one push,
// delivers one twice, and holds one back until after the next. After
// settling, both nodes hold the same state, and b's applied cursor for
// a never moved backwards.
func TestDropDuplicateReorderConverge(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	sb, nb := testNode(t, lt, clk, "b", "loop://a")

	var applied uint64
	deliver := func(frames []byte) ([]byte, error) {
		ack, err := nb.Receive(frames)
		if err != nil {
			return nil, err
		}
		if cur := originApplied(nb, "a"); cur < applied {
			t.Errorf("applied cursor for a moved back: %d -> %d", applied, cur)
		} else {
			applied = cur
		}
		return json.Marshal(ack)
	}
	var pushes int
	var held []byte
	lt.RegisterFunc("loop://b", func(frames []byte) ([]byte, error) {
		pushes++
		switch pushes {
		case 1: // lost
			return nil, fmt.Errorf("push %d dropped", pushes)
		case 2: // duplicated
			deliver(frames)
			return deliver(frames)
		case 3: // held back
			held = frames
			return nil, fmt.Errorf("push %d held", pushes)
		case 4: // overtakes the held push
			ack, err := deliver(frames)
			deliver(held)
			return ack, err
		}
		return deliver(frames)
	})

	for _, mutate := range []func(){
		func() { sa.blocks.Block("203.0.113.1", time.Hour) },
		func() {
			sa.groups.Add("BadGuys", "203.0.113.1")
			sb.blocks.Block("203.0.113.2", time.Hour)
		},
		func() { sa.threat.Set(ids.Medium) },
		func() {
			sa.blocks.Block("203.0.113.1", 2*time.Hour)
			sb.groups.Add("BadGuys", "203.0.113.2")
		},
	} {
		mutate()
		settle(clk, na, nb)
		clk.Advance(retryWait)
	}
	settle(clk, na, nb)

	if pushes != 4 {
		t.Fatalf("%d pushes reached b's link, want the scripted 4", pushes)
	}
	if st := nb.Stats(); st.RecordsDuplicate == 0 {
		t.Errorf("duplicate and overtaken deliveries not seen as duplicates: %+v", st)
	}
	if a, b := fmt.Sprint(sa.blocks.Entries()), fmt.Sprint(sb.blocks.Entries()); a != b {
		t.Errorf("blocks differ:\na=%s\nb=%s", a, b)
	}
	if a, b := fmt.Sprint(sa.groups.Members("BadGuys")), fmt.Sprint(sb.groups.Members("BadGuys")); a != b {
		t.Errorf("groups differ: a=%s b=%s", a, b)
	}
	if a, b := sa.threat.Level(), sb.threat.Level(); a != b || a != ids.Medium {
		t.Errorf("threat a=%v b=%v, want medium on both", a, b)
	}
	if !na.CaughtUp() || !nb.CaughtUp() {
		t.Errorf("not caught up: a=%+v b=%+v", na.Stats(), nb.Stats())
	}
}

func TestCorruptPushDoesNotPanicOrApply(t *testing.T) {
	lt := NewLoopTransport()
	sb, nb := testNode(t, lt, newTestClock(), "b")

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
	sb, nb := testNode(t, lt, newTestClock(), "b")
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
	sb, nb := testNode(t, lt, newTestClock(), "b")
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
	sb, nb := testNode(t, lt, newTestClock(), "b")
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

// TestRedeliveredLastRecordIsDuplicate: an origin's last applied
// record, delivered again on its own, is a duplicate. A counter event
// adds on every apply, so applying it twice would count one failure
// twice.
func TestRedeliveredLastRecordIsDuplicate(t *testing.T) {
	lt := NewLoopTransport()
	sb, nb := testNode(t, lt, newTestClock(), "b")
	const key = "failed_login:203.0.113.70"
	at := time.Now()
	event := func(seq uint64) statestore.Record {
		return statestore.Record{Seq: seq, Kind: statestore.KindCounter, Data: mustJSON(t, conditions.CounterEvent{Key: key, At: at})}
	}
	if _, err := nb.Receive(encodeTestBatch(t, "a", 100, []statestore.Record{event(1), event(2)})); err != nil {
		t.Fatalf("first delivery: %v", err)
	}
	ack, err := nb.Receive(encodeTestBatch(t, "a", 100, []statestore.Record{event(2)}))
	if err != nil {
		t.Fatalf("re-delivery: %v", err)
	}
	if got := sb.counters.CountSince(key, time.Hour); got != 2 {
		t.Errorf("counter = %d after re-delivering the last record, want 2", got)
	}
	if st := nb.Stats(); ack.Acked != 2 || st.RecordsApplied != 2 || st.RecordsDuplicate != 1 {
		t.Errorf("ack %+v, applied %d, duplicates %d; want acked 2, applied 2, one duplicate", ack, st.RecordsApplied, st.RecordsDuplicate)
	}
}

func TestSnapshotResyncWhenLogTrimmed(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	na.maxLog = 4 // tiny log: a cut peer falls behind the horizon fast
	sb, _ := testNode(t, lt, clk, "b")

	lt.Cut("loop://b")
	for i := 0; i < 20; i++ {
		sa.blocks.Block(fmt.Sprintf("203.0.113.%d", 100+i), time.Hour)
	}
	sa.threat.Set(ids.Medium)
	sa.groups.Add("BadGuys", "203.0.113.100")
	na.Push(clk.Now())
	if st := na.Stats(); st.Horizon == 0 || st.LogLen != 4 {
		t.Fatalf("log not trimmed: %+v", st)
	}

	lt.Heal("loop://b")
	clk.Advance(retryWait)
	na.Push(clk.Now())
	if !sb.blocks.Blocked("203.0.113.100") || !sb.blocks.Blocked("203.0.113.119") ||
		sb.threat.Level() != ids.Medium || !sb.groups.Contains("BadGuys", "203.0.113.100") {
		t.Fatal("peer not resynced via snapshot")
	}
	if st := na.Stats(); st.SnapshotsSent != 1 || !na.CaughtUp() {
		t.Fatalf("after resync: %+v", st)
	}
}

func TestNoReplicationLoop(t *testing.T) {
	lt, clk := NewLoopTransport(), newTestClock()
	sa, na := testNode(t, lt, clk, "a", "loop://b")
	sb, nb := testNode(t, lt, clk, "b", "loop://a")

	sa.blocks.Block("203.0.113.77", time.Hour)
	settle(clk, na, nb)
	if !sb.blocks.Blocked("203.0.113.77") {
		t.Fatal("not replicated")
	}
	// b never re-ships a's record: b's own log holds only b-originated
	// mutations (none), so b has nothing to push back.
	if st := nb.Stats(); st.Seq != 0 || st.Pushes != 0 {
		t.Fatalf("b re-mirrored a remote record into its own log: %+v", st)
	}
}

func TestHTTPTransportAndHandler(t *testing.T) {
	lt := NewLoopTransport() // only for building nodes; transport under test is HTTP
	sb, nb := testNode(t, lt, newTestClock(), "b")

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
	_, nb := testNode(t, lt, newTestClock(), "b")
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
