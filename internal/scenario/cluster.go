package scenario

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"gaaapi/internal/cluster"
	"gaaapi/internal/gaahttp"
	"gaaapi/internal/ids"
	"gaaapi/internal/workload"
)

// ClusterTarget drives a campaign against an in-process fleet of n
// stacks on one simulated clock — the deterministic way to run
// campaigns. Requests round-robin across the nodes like a load
// balancer would spread them. A fleet of one is a single stack and
// runs no replication code; a larger fleet is joined by the
// replication layer over an in-process transport whose links the
// campaign can cut and heal — partition drills without processes or
// sockets.
//
// The target runs no goroutine. After every Do, and whenever a test
// calls Settle, it steps each node's Cluster.Push at the simulated
// instant until a round ships nothing, then ticks each node's threat
// level (Stack.Tick); every Advance ticks them too. So a report depends
// on the seed alone. Stepping never moves the clock: a peer backing off
// after a failed push is retried only once the campaign advances past
// its next attempt.
//
// Observe merges the fleet the way the convergence rules do: max
// threat level, union of blocks and blacklists, summed mailboxes and
// decision counters. A checkpoint written for one stack therefore
// reads naturally against a converged fleet — and fails loudly
// against a partitioned one that should have converged.
type ClusterTarget struct {
	Nodes []*gaahttp.Stack
	Clock *SimClock

	transport *cluster.LoopTransport
	urls      []string

	mu   sync.Mutex
	next int // round-robin cursor
}

// NewClusterTarget wires n stacks for cfg (metrics on, Clock the
// shared simulated one) and, when n > 1, joins them in a full
// replication mesh.
func NewClusterTarget(cfg gaahttp.StackConfig, n int) (*ClusterTarget, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster target needs at least one node, got %d", n)
	}
	t := &ClusterTarget{Clock: NewSimClock()}
	cfg.Clock = t.Clock.Now
	cfg.Metrics = true
	if n > 1 {
		t.transport = cluster.NewLoopTransport()
		for i := 0; i < n; i++ {
			t.urls = append(t.urls, fmt.Sprintf("loop://node-%d", i))
		}
	}
	for i := 0; i < n; i++ {
		node := cfg
		if n > 1 {
			node.NodeID = fmt.Sprintf("node-%d", i)
			node.Peers = append(append([]string{}, t.urls[:i]...), t.urls[i+1:]...)
			node.ClusterTransport = t.transport.Bind(t.urls[i])
		}
		st, err := gaahttp.NewStack(node)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("cluster node %d: %w", i, err)
		}
		t.Nodes = append(t.Nodes, st)
		if st.Cluster != nil {
			t.transport.Register(t.urls[i], st.Cluster)
		}
	}
	return t, nil
}

// Do serves the request on the next node in round-robin order.
func (t *ClusterTarget) Do(r workload.Request) (Exchange, error) {
	t.mu.Lock()
	node := t.Nodes[t.next%len(t.Nodes)]
	t.next++
	t.mu.Unlock()
	rec := httptest.NewRecorder()
	node.Server.ServeHTTP(rec, r.HTTPRequest())
	t.Settle()
	return Exchange{
		Method: r.Method,
		Target: r.Target,
		IP:     r.ClientIP,
		User:   r.User,
		Class:  classKey(r.Attack),
		Status: rec.Code,
		Body:   rec.Body.String(),
	}, nil
}

// Settle steps every node's replication at the simulated instant
// until a round ships nothing (at once in a fleet of one), then ticks
// every node.
func (t *ClusterTarget) Settle() {
	for {
		shipped := 0
		for _, node := range t.Nodes {
			if node.Cluster != nil {
				shipped += node.Cluster.Push(t.Clock.Now())
			}
		}
		if shipped == 0 {
			break
		}
	}
	t.tick()
}

// Advance moves the shared simulated clock and ticks every node.
func (t *ClusterTarget) Advance(d time.Duration) {
	t.Clock.Advance(d)
	t.tick()
}

// tick steps every node's threat level at the simulated instant.
func (t *ClusterTarget) tick() {
	for _, node := range t.Nodes {
		node.Tick(t.Clock.Now())
	}
}

// Observe merges the fleet's adaptive state: max threat, union of
// blocks and blacklist members, summed mailbox and decision counts.
func (t *ClusterTarget) Observe() Observation {
	obs := Observation{
		Threat:    ids.Low.String(),
		Blocked:   []string{},
		Blacklist: map[string][]string{},
		Decisions: map[string]uint64{"yes": 0, "no": 0, "maybe": 0},
	}
	maxLevel := ids.Low
	blocked := map[string]bool{}
	members := map[string]map[string]bool{}
	for _, node := range t.Nodes {
		if l := node.Threat.Level(); l > maxLevel {
			maxLevel = l
		}
		obs.Transitions += node.Threat.Transitions()
		for _, b := range node.Blocks.List() {
			blocked[b] = true
		}
		for _, g := range node.Groups.Groups() {
			if members[g] == nil {
				members[g] = map[string]bool{}
			}
			for _, m := range node.Groups.Members(g) {
				members[g][m] = true
			}
		}
		obs.Mailbox += node.Mailbox.Count()
		for dec, v := range decisionCounts(node) {
			obs.Decisions[dec] += v
		}
	}
	obs.Threat = maxLevel.String()
	for b := range blocked {
		obs.Blocked = append(obs.Blocked, b)
	}
	sort.Strings(obs.Blocked)
	for g, ms := range members {
		var list []string
		for m := range ms {
			list = append(list, m)
		}
		sort.Strings(list)
		obs.Blacklist[g] = list
	}
	return obs
}

// Partition isolates node i from the rest of the fleet (both
// directions). Requests still reach it — a partitioned web server
// keeps serving; it just stops learning from and teaching its peers.
func (t *ClusterTarget) Partition(i int) {
	for j, u := range t.urls {
		if j != i {
			t.transport.CutPair(t.urls[i], u)
		}
	}
}

// Heal reconnects node i to every peer.
func (t *ClusterTarget) Heal(i int) {
	for j, u := range t.urls {
		if j != i {
			t.transport.HealPair(t.urls[i], u)
		}
	}
}

// Converged reports whether every node's replication log has been
// fully acknowledged by all its peers.
func (t *ClusterTarget) Converged() bool {
	for _, node := range t.Nodes {
		if node.Cluster != nil && !node.Cluster.CaughtUp() {
			return false
		}
	}
	return true
}

// Close releases every node.
func (t *ClusterTarget) Close() {
	for _, node := range t.Nodes {
		node.Close()
	}
}
