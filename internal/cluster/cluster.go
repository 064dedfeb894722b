// Package cluster replicates the adaptive state — netblock events,
// threat transitions, lockout counter events, blacklist group
// membership — across a fleet of gaa-httpd nodes, so an attacker
// blacklisted on node A is firewalled on node B within seconds.
//
// The design is log shipping without consensus. Every node tags the
// mutations it originates with its own (node-id, epoch, sequence) and
// keeps them in a bounded in-memory log, tapped from the statestore
// journal (statestore.Adaptive.SetMirror); the wire unit is the
// statestore journal record and the wire encoding is the same
// length+CRC WAL framing that protects the on-disk journal. Each node
// pushes its log tail to every peer over HTTP, with jittered-backoff
// retry and a circuit breaker per peer. A push is a step, Push(now),
// on a clock its caller owns: a simulated fleet steps it between
// requests, a server runs it on Start's per-peer goroutines.
// Receivers apply remote records through merge rules that commute —
// later-deadline-wins for blocks, max-wins for the threat level,
// additive counters, as-sent group membership — so nodes converge
// eventually regardless of delivery order, and loops are broken by
// origin tagging: a node never re-ships a record it merged from a peer
// (remote applies bypass the mirror), and drops pushes that carry its
// own node id.
//
// Robustness is the headline contract: a peer that is down, slow,
// lying (corrupt frames, malformed payloads), or partitioned away
// must never stall the request hot path — the tap is an in-memory
// append, all network IO happens in Push — and must never corrupt
// local state: frames are CRC-checked, payloads that fail to decode
// stop the batch at the last good record, and degraded replication is
// reported via Stats/metrics, never fatal.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gaaapi/internal/retry"
	"gaaapi/internal/statestore"
)

// KindHello marks the first frame of every push: the sender's identity
// and epoch. KindSnapshot carries a full state snapshot for a peer
// that fell behind the log horizon. Neither is ever journaled.
const (
	KindHello    = "cluster-hello"
	KindSnapshot = "cluster-snapshot"
)

// hello is the payload of a KindHello frame.
type hello struct {
	Node  string `json:"node"`
	Epoch uint64 `json:"epoch"`
}

// snapshotPayload is the payload of a KindSnapshot frame: the full
// adaptive state plus the log sequence it covers.
type snapshotPayload struct {
	Seq   uint64          `json:"seq"`
	State json.RawMessage `json:"state"`
}

// Ack is the receiver's response to a push.
type Ack struct {
	// Node is the responder's id; a sender seeing its own id has been
	// configured with itself as a peer and stops pushing there.
	Node string `json:"node"`
	// Acked is the highest sender-log sequence the receiver has
	// applied for this sender's current epoch.
	Acked uint64 `json:"acked"`
	// Corrupt reports that the batch carried an invalid frame or
	// payload past Acked; the sender will retry the tail.
	Corrupt bool `json:"corrupt,omitempty"`
}

// Config wires a Node.
type Config struct {
	// NodeID identifies this node in origin tags ("a", "web-3", ...).
	// Required, and must be unique across the fleet.
	NodeID string
	// Peers are the base URLs of the other nodes
	// ("http://10.0.0.2:8080"); the push endpoint path is appended by
	// the transport. Empty is valid: the node still accepts pushes.
	Peers []string
	// State is the tap and apply point (statestore.Attach). Required.
	State *statestore.Adaptive
	// Transport overrides peer delivery (in-process tests); nil uses
	// HTTP POST to peer + "/gaa/replicate".
	Transport Transport
	// PushInterval is Start's idle tick — how often a peer with
	// pending records is re-tried outside the immediate push on new
	// mutations (default 100ms).
	PushInterval time.Duration
	// Clock is the instant Stats, the breakers and Start's steps read
	// (default time.Now). A simulated campaign passes its own clock,
	// so backoff, breaker cooldowns and the degraded window follow it.
	Clock func() time.Time
}

// Replication constants. The backoff is 25ms base, x2, 2s cap, full
// jitter — a fleet must not retry a recovered node in lockstep.
const (
	pushTimeout      = 2 * time.Second // bounds one push round-trip
	maxBatch         = 512             // records per push
	maxLog           = 65536           // default bound of the replication log
	breakerThreshold = 3               // consecutive failures that open a peer's breaker
	breakerCooldown  = time.Second     // open breaker's wait before a probe
	degradedAfter    = 5 * time.Second // without a successful push: degraded
	backoffBase      = 25 * time.Millisecond
	backoffCap       = 2 * time.Second
)

var backoff = retry.Policy{BaseDelay: backoffBase, Multiplier: 2, MaxDelay: backoffCap, Jitter: 1}

func (c Config) withDefaults() (Config, error) {
	if c.NodeID == "" {
		return c, fmt.Errorf("cluster: NodeID is required")
	}
	if c.State == nil {
		return c, fmt.Errorf("cluster: State is required")
	}
	if c.Transport == nil {
		c.Transport = NewHTTPTransport(nil)
	}
	if c.PushInterval <= 0 {
		c.PushInterval = 100 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c, nil
}

// originState tracks what has been applied from one remote origin.
type originState struct {
	epoch   uint64
	applied uint64
}

// peer is the sender-side view of one replication target.
type peer struct {
	url     string
	breaker *retry.Breaker
	notify  chan struct{}

	mu          sync.Mutex
	acked       uint64
	failures    int       // consecutive, for backoff
	next        time.Time // after a failure: no attempt before this instant
	lastErr     string
	lastSuccess time.Time // baseline: node creation, then each acked push
}

// Node is one member of the replication mesh. Create with New, serve
// Handler at the replicate endpoint, and ship state either by calling
// Push on a clock the caller owns or by Start's per-peer goroutines;
// Stop on shutdown.
type Node struct {
	cfg    Config
	epoch  uint64
	peers  []*peer
	maxLog int

	mu      sync.Mutex
	log     []statestore.Record // self-originated records; log[i].Seq == horizon+i+1
	horizon uint64              // highest trimmed-away sequence (0: nothing trimmed)
	seq     uint64              // last issued sequence
	origins map[string]*originState

	// ctx parents every push and Start's goroutines; Stop cancels it,
	// so a push hung on a slow peer ends with Stop, not its timeout.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// counters (atomics: read by metrics collectors on scrape).
	recordsSent      atomic.Uint64
	pushes           atomic.Uint64
	pushFailures     atomic.Uint64
	recordsApplied   atomic.Uint64
	recordsDuplicate atomic.Uint64
	corruptFrames    atomic.Uint64
	applyErrors      atomic.Uint64
	selfDrops        atomic.Uint64
	staleEpochDrops  atomic.Uint64
	snapshotsSent    atomic.Uint64
	snapshotsApplied atomic.Uint64
	panicsRecovered  atomic.Uint64
}

// New wires a node and installs the journal mirror tap. Nothing is
// shipped until Push or Start. The epoch is read from the wall clock,
// whatever Config.Clock says, so a restarted node presents a higher
// epoch and peers reset their applied cursor for it.
func New(cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		epoch:   uint64(time.Now().UnixNano()),
		maxLog:  maxLog,
		origins: make(map[string]*originState),
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	for _, url := range cfg.Peers {
		n.peers = append(n.peers, &peer{
			url:     url,
			breaker: retry.NewBreaker(breakerThreshold, breakerCooldown, cfg.Clock),
			notify:  make(chan struct{}, 1),
			// The degraded window starts from creation: a peer is only
			// degraded once it has been failing with pending records
			// for degradedAfter, not merely because nothing ever
			// needed pushing.
			lastSuccess: cfg.Clock(),
		})
	}
	cfg.State.SetMirror(n.mirror)
	return n, nil
}

// Epoch returns the node's epoch.
func (n *Node) Epoch() uint64 { return n.epoch }

// mirror is the statestore tap: record a locally originated mutation
// in the replication log and nudge the pushers. It runs on the request
// hot path (inside journal hooks), so it is an in-memory append and
// non-blocking channel sends — no IO, no waiting. When the log
// overflows maxLog, the oldest records are trimmed; a peer that fell
// behind the trimmed horizon receives a full state snapshot instead.
func (n *Node) mirror(kind string, data json.RawMessage) {
	n.mu.Lock()
	n.seq++
	n.log = append(n.log, statestore.Record{Seq: n.seq, Kind: kind, Data: data})
	if len(n.log) > n.maxLog {
		trim := len(n.log) - n.maxLog
		n.horizon = n.log[trim-1].Seq
		n.log = append(n.log[:0], n.log[trim:]...)
	}
	n.mu.Unlock()
	for _, p := range n.peers {
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
}

// Start is the wall-clock driver: one goroutine per peer waits for a
// new-record nudge or the idle tick and then takes one step for that
// peer. A caller that owns the clock calls Push instead.
func (n *Node) Start() {
	for _, p := range n.peers {
		p := p
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			tick := time.NewTicker(n.cfg.PushInterval)
			defer tick.Stop()
			for {
				select {
				case <-n.ctx.Done():
					return
				case <-p.notify:
				case <-tick.C:
				}
				n.pushTo(p, n.cfg.Clock())
			}
		}()
	}
}

// Stop cancels any push in flight, halts Start's goroutines and waits
// for them. The mirror tap stays installed (mutations keep
// accumulating in the log) but nothing is shipped after Stop returns.
func (n *Node) Stop() {
	n.cancel()
	n.wg.Wait()
}

// Push is one replication step at instant now: every peer that is
// due — its breaker admits a call and no failed push set its next
// attempt after now — is sent its pending tail, batch after batch
// while it keeps acknowledging. It returns how many records the peers
// newly acknowledged, so a caller can step until a round ships
// nothing. Failures are absorbed: the peer's next attempt moves to
// now plus the jittered backoff, and nothing reaches the caller.
func (n *Node) Push(now time.Time) int {
	acked := 0
	for _, p := range n.peers {
		acked += n.pushTo(p, now)
	}
	return acked
}

// tail returns the records to send to a peer that has acknowledged
// through acked, plus a snapshot frame when the peer is behind the
// trimmed horizon.
func (n *Node) tail(acked uint64) (recs []statestore.Record, needSnapshot bool, snapSeq uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if acked < n.horizon {
		// The records this peer needs were trimmed; a snapshot covering
		// everything up to the horizon replaces them.
		needSnapshot, snapSeq = true, n.horizon
	}
	from := acked
	if from < n.horizon {
		from = n.horizon
	}
	start := int(from - n.horizon) // index into log of first unacked record
	if start >= len(n.log) {
		return nil, needSnapshot, snapSeq
	}
	end := len(n.log)
	if end-start > maxBatch {
		end = start + maxBatch
	}
	recs = make([]statestore.Record, end-start)
	copy(recs, n.log[start:end])
	return recs, needSnapshot, snapSeq
}

// pushTo is Push for one peer.
func (n *Node) pushTo(p *peer, now time.Time) (acked int) {
	for n.ctx.Err() == nil {
		p.mu.Lock()
		from, next := p.acked, p.next
		p.mu.Unlock()

		recs, needSnapshot, snapSeq := n.tail(from)
		if len(recs) == 0 && !needSnapshot {
			return acked // caught up
		}
		if now.Before(next) || !p.breaker.Allow() {
			return acked // backing off, or the breaker is open
		}

		frames, err := n.encodeBatch(recs, needSnapshot, snapSeq)
		if err != nil {
			// Only a marshal bug lands here; drop the snapshot attempt
			// rather than wedging the pusher.
			p.breaker.Record(nil)
			return acked
		}
		ctx, cancel := context.WithTimeout(n.ctx, pushTimeout)
		respBody, err := n.cfg.Transport.Send(ctx, p.url, frames)
		cancel()
		n.pushes.Add(1)
		if err == nil {
			var ack Ack
			if jerr := json.Unmarshal(respBody, &ack); jerr != nil {
				err = fmt.Errorf("cluster: bad ack from %s: %w", p.url, jerr)
			} else if ack.Node == n.cfg.NodeID {
				// Misconfiguration: we are our own peer. Stop pushing.
				n.selfDrops.Add(1)
				p.breaker.Record(nil)
				p.mu.Lock()
				p.acked = n.currentSeq()
				p.failures = 0
				p.mu.Unlock()
				return acked
			} else {
				p.breaker.Record(nil)
				p.mu.Lock()
				if ack.Acked > p.acked {
					n.recordsSent.Add(ack.Acked - p.acked)
					acked += int(ack.Acked - p.acked)
					p.acked = ack.Acked
				}
				p.failures = 0
				p.lastErr = ""
				p.lastSuccess = now
				p.mu.Unlock()
				if needSnapshot {
					n.snapshotsSent.Add(1)
				}
				if ack.Corrupt {
					// The peer rejected part of the batch; retrying the
					// same bytes is unlikely to fare better immediately.
					n.pushFailures.Add(1)
					return acked
				}
				continue // more tail may be pending
			}
		}
		n.pushFailures.Add(1)
		p.breaker.Record(err)
		p.mu.Lock()
		p.failures++
		p.next = now.Add(backoff.Delay(p.failures))
		p.lastErr = err.Error()
		p.mu.Unlock()
		return acked
	}
	return acked
}

// encodeBatch frames hello [+ snapshot] + records.
func (n *Node) encodeBatch(recs []statestore.Record, withSnapshot bool, snapSeq uint64) ([]byte, error) {
	helloData, err := json.Marshal(hello{Node: n.cfg.NodeID, Epoch: n.epoch})
	if err != nil {
		return nil, err
	}
	batch := make([]statestore.Record, 0, len(recs)+2)
	batch = append(batch, statestore.Record{Kind: KindHello, Data: helloData})
	if withSnapshot {
		state, err := n.cfg.State.StateSnapshot()
		if err != nil {
			return nil, err
		}
		snapData, err := json.Marshal(snapshotPayload{Seq: snapSeq, State: state})
		if err != nil {
			return nil, err
		}
		batch = append(batch, statestore.Record{Seq: snapSeq, Kind: KindSnapshot, Data: snapData})
	}
	batch = append(batch, recs...)
	return statestore.EncodeFrames(batch)
}

func (n *Node) currentSeq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seq
}

// Receive applies one pushed batch of frames and returns the ack. It
// is the transport-independent receiver core: CRC-invalid frames stop
// the scan at the last good record, malformed payloads stop the apply,
// and both are reported in the ack (Corrupt) and counted — never
// propagated as a failure that could take the node down. err is
// non-nil only for batches rejected outright (no hello, foreign
// protocol); state is untouched then.
func (n *Node) Receive(body []byte) (Ack, error) {
	defer func() {
		// A decoding or merge panic must not take down the serving
		// process: count it and let the deferred handler in Handler
		// turn it into a 500. (No recover here — the goroutine's own
		// recover in Handler does it — this defer only exists to keep
		// the counter accurate if a panic unwinds through Receive.)
		if r := recover(); r != nil {
			n.panicsRecovered.Add(1)
			panic(r)
		}
	}()

	recs, ferr := statestore.DecodeFrames(body)
	if ferr != nil {
		n.corruptFrames.Add(1)
	}
	if len(recs) == 0 || recs[0].Kind != KindHello {
		return Ack{Node: n.cfg.NodeID}, fmt.Errorf("cluster: push without hello frame")
	}
	var h hello
	if err := json.Unmarshal(recs[0].Data, &h); err != nil || h.Node == "" {
		return Ack{Node: n.cfg.NodeID}, fmt.Errorf("cluster: malformed hello")
	}
	last := recs[len(recs)-1].Seq
	if h.Node == n.cfg.NodeID {
		// Our own records looped back (we are someone's misconfigured
		// peer, or a relay echoed them). Acknowledge so the sender
		// stops resending, apply nothing.
		n.selfDrops.Add(1)
		return Ack{Node: n.cfg.NodeID, Acked: last}, nil
	}

	n.mu.Lock()
	st, ok := n.origins[h.Node]
	switch {
	case !ok:
		st = &originState{epoch: h.Epoch}
		n.origins[h.Node] = st
	case h.Epoch > st.epoch:
		// The origin restarted: new epoch, fresh sequence space.
		st.epoch = h.Epoch
		st.applied = 0
	case h.Epoch < st.epoch:
		// A zombie process with a stale epoch. Ack what it offered so
		// it goes quiet, apply nothing.
		n.mu.Unlock()
		n.staleEpochDrops.Add(1)
		return Ack{Node: n.cfg.NodeID, Acked: last}, nil
	}
	n.mu.Unlock()

	ack := Ack{Node: n.cfg.NodeID, Corrupt: ferr != nil}
	for _, rec := range recs[1:] {
		if rec.Kind == KindSnapshot {
			var sp snapshotPayload
			if err := json.Unmarshal(rec.Data, &sp); err != nil {
				n.applyErrors.Add(1)
				ack.Corrupt = true
				break
			}
			if _, err := n.cfg.State.ApplyRemoteSnapshot(sp.State); err != nil {
				n.applyErrors.Add(1)
				ack.Corrupt = true
				break
			}
			n.snapshotsApplied.Add(1)
			n.advanceApplied(st, sp.Seq)
			continue
		}
		if rec.Seq <= n.appliedSeq(st) {
			n.recordsDuplicate.Add(1)
			continue
		}
		changed, err := n.cfg.State.ApplyRemote(rec)
		if err != nil {
			// Valid CRC but lying payload: stop at the last good
			// record; the ack tells the sender how far we got.
			n.applyErrors.Add(1)
			ack.Corrupt = true
			break
		}
		if changed {
			n.recordsApplied.Add(1)
		} else {
			n.recordsDuplicate.Add(1)
		}
		n.advanceApplied(st, rec.Seq)
	}
	ack.Acked = n.appliedSeq(st)
	return ack, nil
}

func (n *Node) appliedSeq(st *originState) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return st.applied
}

func (n *Node) advanceApplied(st *originState, seq uint64) {
	n.mu.Lock()
	if seq > st.applied {
		st.applied = seq
	}
	n.mu.Unlock()
}

// PeerStatus is one peer's replication health.
type PeerStatus struct {
	URL string `json:"url"`
	// Acked is the highest local-log sequence the peer confirmed.
	Acked uint64 `json:"acked"`
	// Lag is how many local records the peer has not confirmed.
	Lag uint64 `json:"lag"`
	// Breaker is the circuit state ("closed", "open", "half-open").
	Breaker string `json:"breaker"`
	// Failures is the current consecutive-failure streak.
	Failures int `json:"failures,omitempty"`
	// LastError is the most recent push error ("" when healthy).
	LastError string `json:"last_error,omitempty"`
	// Degraded: records pending and no successful push within the
	// degraded window (5s on the node's clock).
	Degraded bool `json:"degraded,omitempty"`
	// BreakerOpens counts how often this peer tripped the breaker.
	BreakerOpens uint64 `json:"breaker_opens,omitempty"`
}

// OriginStatus is the receive-side cursor for one remote origin.
type OriginStatus struct {
	Node    string `json:"node"`
	Epoch   uint64 `json:"epoch"`
	Applied uint64 `json:"applied"`
}

// Stats is a point-in-time snapshot of the node's replication state.
type Stats struct {
	NodeID  string `json:"node_id"`
	Epoch   uint64 `json:"epoch"`
	Seq     uint64 `json:"seq"`     // local replication-log head
	LogLen  int    `json:"log_len"` // records held for peers
	Horizon uint64 `json:"horizon"` // trimmed-away prefix boundary

	Pushes           uint64 `json:"pushes"`
	RecordsSent      uint64 `json:"records_sent"`
	PushFailures     uint64 `json:"push_failures"`
	RecordsApplied   uint64 `json:"records_applied"`
	RecordsDuplicate uint64 `json:"records_duplicate"`
	CorruptFrames    uint64 `json:"corrupt_frames"`
	ApplyErrors      uint64 `json:"apply_errors"`
	SelfDrops        uint64 `json:"self_drops"`
	StaleEpochDrops  uint64 `json:"stale_epoch_drops"`
	SnapshotsSent    uint64 `json:"snapshots_sent"`
	SnapshotsApplied uint64 `json:"snapshots_applied"`
	PanicsRecovered  uint64 `json:"panics_recovered"`

	// MaxLag is the largest per-peer lag — the convergence-lag metric.
	MaxLag uint64 `json:"max_lag"`
	// DegradedPeers counts peers currently degraded.
	DegradedPeers int `json:"degraded_peers"`

	Peers   []PeerStatus   `json:"peers,omitempty"`
	Origins []OriginStatus `json:"origins,omitempty"`
}

// Stats snapshots the node.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	s := Stats{
		NodeID:  n.cfg.NodeID,
		Epoch:   n.epoch,
		Seq:     n.seq,
		LogLen:  len(n.log),
		Horizon: n.horizon,
	}
	for node, st := range n.origins {
		s.Origins = append(s.Origins, OriginStatus{Node: node, Epoch: st.epoch, Applied: st.applied})
	}
	seq := n.seq
	n.mu.Unlock()

	s.Pushes = n.pushes.Load()
	s.RecordsSent = n.recordsSent.Load()
	s.PushFailures = n.pushFailures.Load()
	s.RecordsApplied = n.recordsApplied.Load()
	s.RecordsDuplicate = n.recordsDuplicate.Load()
	s.CorruptFrames = n.corruptFrames.Load()
	s.ApplyErrors = n.applyErrors.Load()
	s.SelfDrops = n.selfDrops.Load()
	s.StaleEpochDrops = n.staleEpochDrops.Load()
	s.SnapshotsSent = n.snapshotsSent.Load()
	s.SnapshotsApplied = n.snapshotsApplied.Load()
	s.PanicsRecovered = n.panicsRecovered.Load()

	now := n.cfg.Clock()
	for _, p := range n.peers {
		p.mu.Lock()
		ps := PeerStatus{
			URL:          p.url,
			Acked:        p.acked,
			Breaker:      p.breaker.State().String(),
			Failures:     p.failures,
			LastError:    p.lastErr,
			BreakerOpens: p.breaker.Opens(),
		}
		if seq > p.acked {
			ps.Lag = seq - p.acked
		}
		ps.Degraded = ps.Lag > 0 && now.Sub(p.lastSuccess) > degradedAfter
		p.mu.Unlock()
		if ps.Lag > s.MaxLag {
			s.MaxLag = ps.Lag
		}
		if ps.Degraded {
			s.DegradedPeers++
		}
		s.Peers = append(s.Peers, ps)
	}
	return s
}

// CaughtUp reports whether every peer has confirmed the whole local
// log (vacuously true with no peers).
func (n *Node) CaughtUp() bool { return n.Stats().MaxLag == 0 }
