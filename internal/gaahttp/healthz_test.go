package gaahttp

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"gaaapi/internal/cluster"
)

func healthzGet(t *testing.T, s *Stack) (int, Healthz) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", HealthzPath, nil))
	var h Healthz
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz decode: %v (%q)", err, rec.Body.String())
	}
	return rec.Code, h
}

func TestHealthzSingleNode(t *testing.T) {
	s, err := NewStack(StackConfig{StateDir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	defer s.Close()
	code, h := healthzGet(t, s)
	if code != 200 || !h.Ready {
		t.Fatalf("single node not ready: %d %+v", code, h)
	}
	if h.Store != "ok" || h.Replication != "none" {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestHealthzInMemoryNode(t *testing.T) {
	s, err := NewStack(StackConfig{})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	defer s.Close()
	code, h := healthzGet(t, s)
	if code != 200 || h.Store != "none" {
		t.Fatalf("in-memory node: %d %+v", code, h)
	}
}

func TestHealthzReplicationStates(t *testing.T) {
	lt := cluster.NewLoopTransport()
	a, err := NewStack(StackConfig{
		NodeID:              "a",
		Peers:               []string{"loop://b"},
		ClusterTransport:    lt,
		ReplicationInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewStack a: %v", err)
	}
	defer a.Close()
	b, err := NewStack(StackConfig{
		NodeID:           "b",
		ClusterTransport: lt,
	})
	if err != nil {
		t.Fatalf("NewStack b: %v", err)
	}
	defer b.Close()
	lt.Register("loop://b", b.Cluster)

	// Nothing pending: replication ok, ready.
	if code, h := healthzGet(t, a); code != 200 || h.Replication != "ok" {
		t.Fatalf("idle cluster: %d %+v", code, h)
	}

	// Cut the link and mutate: a lags, then degrades. While only
	// catching up (not yet degraded) the node reports 503; once the
	// peer is declared degraded the node is ready again — a partition
	// must not pull every surviving node out of the pool.
	lt.Cut("loop://b")
	a.Blocks.Block("203.0.113.1", time.Hour)
	if code, h := healthzGet(t, a); code != 503 || h.Replication != "catching-up" || h.Ready {
		t.Fatalf("lagging cluster: %d %+v", code, h)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, h := healthzGet(t, a)
		if h.Replication == "degraded" {
			if code != 200 || !h.Ready || h.DegradedPeers != 1 {
				t.Fatalf("degraded cluster: %d %+v", code, h)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer never declared degraded: %d %+v", code, h)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Heal: the block replicates, lag drains, back to ok.
	lt.Heal("loop://b")
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, h := healthzGet(t, a)
		if h.Replication == "ok" {
			if code != 200 || !b.Blocks.Blocked("203.0.113.1") {
				t.Fatalf("healed cluster: %d %+v blocked=%v", code, h, b.Blocks.Blocked("203.0.113.1"))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged: %d %+v", code, h)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
