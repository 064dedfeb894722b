package adaptive

import "time"

// ScoreEvent is the replication/persistence record of a per-source
// score movement. Merge rules follow the PR-9 consensus-free model:
// Score is max-wins (an anomaly score is evidence — the worst view
// wins), Samples is an additive delta of observations since the
// origin's previous event (evidence accumulates across nodes).
type ScoreEvent struct {
	Source string `json:"source"`
	// Score is the origin's per-source score at emission time.
	Score float64 `json:"score"`
	// Samples is the number of observations folded in since the
	// origin's last event for this source (additive on merge). In a
	// snapshot it carries the origin's total instead (max-wins).
	Samples int       `json:"samples"`
	At      time.Time `json:"at"`
}

// ProfileCheckpoint is the replication/persistence record of a
// resource profile: the length moments (Welford state) and the
// accumulated charset-class mass. Merge rule: the checkpoint with
// more training observations wins outright — profiles summarize the
// same underlying traffic, so the better-trained view supersedes.
type ProfileCheckpoint struct {
	Resource string    `json:"resource"`
	N        int       `json:"n"`
	MeanLen  float64   `json:"mean_len"`
	M2Len    float64   `json:"m2_len"`
	Classes  []float64 `json:"classes"`
	At       time.Time `json:"at"`
}

func checkpoint(path string, r *resourceProfile, at time.Time) ProfileCheckpoint {
	return ProfileCheckpoint{
		Resource: path,
		N:        r.length.N,
		MeanLen:  r.length.Mean,
		M2Len:    r.length.M2,
		Classes:  append([]float64(nil), r.classes[:]...),
		At:       at,
	}
}

// ApplyScore merges a peer's (or a replayed) score event: Score
// max-wins, Samples additive into the merged-evidence count. When the
// merged evidence pushes the source over the block threshold the
// source is blocked locally — a block earned anywhere enforces
// everywhere the event reaches. Returns whether any state changed.
func (e *Engine) ApplyScore(ev ScoreEvent) bool {
	e.mu.Lock()
	src := e.source(ev.Source)
	changed := false
	if ev.Score > src.score {
		src.score = ev.Score
		changed = true
	}
	if ev.Samples > 0 {
		src.merged += ev.Samples
		changed = true
	}
	if ev.At.After(src.last) {
		src.last = ev.At
	}
	block := false
	if !ev.At.Before(src.blockedUntil) && e.blocks != nil &&
		src.score >= e.cfg.BlockScore && src.n+src.merged >= e.cfg.MinSamples {
		src.blockedUntil = ev.At.Add(blockFor)
		block = true
	}
	e.mu.Unlock()
	if block {
		e.blocks.Block(ev.Source, blockFor)
		e.sourceBlocks.Add(1)
	}
	return changed || block
}

// RestoreScore merges a snapshot entry: Score max-wins and Samples
// max-wins (a snapshot carries totals, so adding would double-count —
// the same rule that keeps counters out of remote snapshots). Never
// blocks and never journals; block state rides its own record kind.
func (e *Engine) RestoreScore(ev ScoreEvent) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	src := e.source(ev.Source)
	changed := false
	if ev.Score > src.score {
		src.score = ev.Score
		changed = true
	}
	if total := src.n + src.merged; ev.Samples > total {
		src.merged += ev.Samples - total
		changed = true
	}
	if ev.At.After(src.last) {
		src.last = ev.At
	}
	return changed
}

// ApplyProfile merges a resource profile checkpoint: the view with
// more training observations wins outright. Idempotent, so it serves
// journal replay, remote records and snapshots alike. Returns whether
// the local profile was replaced.
func (e *Engine) ApplyProfile(cp ProfileCheckpoint) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	res := e.resource(cp.Resource)
	if cp.N <= res.n {
		return false
	}
	res.n = cp.N
	res.length.N = cp.N
	res.length.Mean = cp.MeanLen
	res.length.M2 = cp.M2Len
	for i := range res.classes {
		res.classes[i] = 0
	}
	for i, v := range cp.Classes {
		if i >= nClasses {
			break
		}
		res.classes[i] = v
	}
	return true
}

// Scores snapshots the per-source scores in deterministic (sorted)
// order; Samples carries the source's total evidence (snapshot
// semantics — restore with RestoreScore).
func (e *Engine) Scores() []ScoreEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ScoreEvent, 0, len(e.sources))
	for _, addr := range sortedKeys(e.sources) {
		p := e.sources[addr]
		out = append(out, ScoreEvent{
			Source:  addr,
			Score:   p.score,
			Samples: p.n + p.merged,
			At:      p.last,
		})
	}
	return out
}

// Profiles snapshots the trained resource profiles in deterministic
// (sorted) order.
func (e *Engine) Profiles() []ProfileCheckpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ProfileCheckpoint, 0, len(e.resources))
	for _, path := range sortedKeys(e.resources) {
		p := e.resources[path]
		if p.n == 0 {
			continue
		}
		out = append(out, checkpoint(path, p, time.Time{}))
	}
	return out
}
