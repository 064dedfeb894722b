package gaahttp

import (
	"encoding/json"
	"net/http"
)

// HealthzPath is where Handler serves the readiness endpoint.
const HealthzPath = "/gaa/healthz"

// Healthz is the readiness report: whether the adaptive state was
// recovered, the policy set is live, and replication has caught up.
type Healthz struct {
	// Ready is the overall verdict (the HTTP status mirrors it: 200
	// ready, 503 not).
	Ready bool `json:"ready"`
	// Store is "ok" (journal recovered), "none" (running in-memory).
	Store string `json:"store"`
	// DroppedBytes is the corrupt WAL tail quarantined at recovery.
	DroppedBytes int64 `json:"dropped_bytes,omitempty"`
	// Policy is "ok" once the guard serves a policy generation.
	Policy string `json:"policy"`
	// Replication is "none" (single node), "ok" (all peers confirmed
	// the whole log), "catching-up" (peers behind but progressing) or
	// "degraded" (a peer unreachable past the degraded window).
	Replication string `json:"replication"`
	// Lag is the largest per-peer count of unconfirmed records.
	Lag uint64 `json:"lag,omitempty"`
	// DegradedPeers counts peers currently unreachable.
	DegradedPeers int `json:"degraded_peers,omitempty"`
}

// Health computes the readiness report from the durable store and the
// replication node (either may be absent). Degraded replication keeps
// the node ready — a partitioned peer must not make a load balancer
// pull the one node that still serves (that would turn a partition
// into an outage); catching up on a healthy link is the only not-ready
// replication state, and only until the lag drains.
func (s *Stack) Health() Healthz {
	h := Healthz{Store: "none", Policy: "ok", Replication: "none"}
	if s.Store != nil {
		h.Store = "ok"
		h.DroppedBytes = s.Store.Recovery().DroppedBytes
	}
	if s.Cluster != nil {
		st := s.Cluster.Stats()
		h.Lag = st.MaxLag
		h.DegradedPeers = st.DegradedPeers
		switch {
		case st.DegradedPeers > 0:
			h.Replication = "degraded"
		case st.MaxLag > 0:
			h.Replication = "catching-up"
		default:
			h.Replication = "ok"
		}
	}
	h.Ready = h.Replication != "catching-up"
	return h
}

// serveHealthz answers the report as JSON: 200 when ready (including
// degraded replication), 503 while replication is catching up on
// healthy links.
func (s *Stack) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	w.Header().Set("Content-Type", "application/json")
	if !h.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}
