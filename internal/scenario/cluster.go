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

// ClusterTarget drives a campaign against an in-process fleet of
// stacks joined by the replication layer: requests round-robin across
// the nodes like a load balancer would spread them, every node shares
// one simulated clock, and the replication mesh runs over an
// in-process transport whose links the campaign can cut and heal —
// partition drills (ROADMAP: campaigns over a cluster) without
// processes or sockets.
//
// The target runs no goroutine. After every Do, and whenever a test
// calls Settle, it steps each node's Cluster.Push at the simulated
// instant until a round ships nothing, so a report depends on the
// seed alone. Stepping never moves the clock: a peer backing off after
// a failed push is retried only once the campaign advances past its
// next attempt.
//
// Observe merges the fleet the way the convergence rules do: max
// threat level, union of blocks and blacklists, summed mailboxes and
// decision counters. A checkpoint written for a single StackTarget
// therefore reads naturally against a converged fleet — and fails
// loudly against a partitioned one that should have converged.
type ClusterTarget struct {
	Nodes []*gaahttp.Stack
	Clock *SimClock

	transport *cluster.LoopTransport
	urls      []string

	mu   sync.Mutex
	next int // round-robin cursor
}

// NewClusterTarget wires n identical stacks for spec into a full
// replication mesh on a shared simulated clock.
func NewClusterTarget(spec StackSpec, n int) (*ClusterTarget, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster target needs at least one node, got %d", n)
	}
	clock := NewSimClock()
	lt := cluster.NewLoopTransport()
	t := &ClusterTarget{Clock: clock, transport: lt}
	for i := 0; i < n; i++ {
		t.urls = append(t.urls, fmt.Sprintf("loop://node-%d", i))
	}
	for i := 0; i < n; i++ {
		var peers []string
		for j, u := range t.urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		st, err := gaahttp.NewStack(gaahttp.StackConfig{
			SystemPolicy:     spec.SystemPolicy,
			LocalPolicies:    spec.LocalPolicies,
			DocRoot:          spec.DocRoot,
			Users:            spec.Users,
			RuntimeValues:    spec.RuntimeValues,
			Clock:            clock.Now,
			Metrics:          true,
			Adaptive:         spec.Adaptive,
			NodeID:           fmt.Sprintf("node-%d", i),
			Peers:            peers,
			ClusterTransport: lt.Bind(t.urls[i]),
		})
		if err != nil {
			for _, prev := range t.Nodes {
				prev.Close()
			}
			return nil, fmt.Errorf("cluster node %d: %w", i, err)
		}
		t.Nodes = append(t.Nodes, st)
		lt.Register(t.urls[i], st.Cluster)
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
// until a round ships nothing.
func (t *ClusterTarget) Settle() {
	for {
		shipped := 0
		for _, node := range t.Nodes {
			shipped += node.Cluster.Push(t.Clock.Now())
		}
		if shipped == 0 {
			return
		}
	}
}

// Advance moves the shared simulated clock.
func (t *ClusterTarget) Advance(d time.Duration) { t.Clock.Advance(d) }

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
		if !node.Cluster.CaughtUp() {
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
