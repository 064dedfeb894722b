package ids

import (
	"hash/maphash"
	"slices"
	"sync"
)

// AnomalyConfig tunes the anomaly detector.
type AnomalyConfig struct {
	// MinTraining is the number of observations a profile needs before
	// it scores requests; untrained profiles return score 0.
	MinTraining int
	// NewPathWeight is the score contribution of a never-seen path.
	NewPathWeight float64
	// LengthZMax caps the z-score contribution of the input length.
	LengthZMax float64
	// Threshold is the score at or above which a request is unusual.
	Threshold float64
}

// DefaultAnomalyConfig returns the tuning used by the experiments.
func DefaultAnomalyConfig() AnomalyConfig {
	return AnomalyConfig{
		MinTraining:   20,
		NewPathWeight: 1.0,
		LengthZMax:    4.0,
		Threshold:     3.0,
	}
}

// maxProfilePaths bounds each profile's path set: a grant precedes the
// 404, so any permitted client could otherwise grow it with random paths.
const maxProfilePaths = 256

// maxProfiles bounds the profile table by the same rule: every granted
// source address is a principal, so a full table admits no new one. An
// unadmitted principal scores 0, as an untrained one does.
const maxProfiles = 16384

// profile accumulates per-principal behaviour: the set of paths the
// principal accesses and running moments of the request input length
// (the shared Welford core). A full path set stops recording: new paths
// keep scoring as never-seen, recorded ones are still recognised.
//
// The set holds each path's 64-bit hash, sorted, not the path: a full
// set is 2 KiB and pins no request's string. Two paths share a hash
// with probability 2^-64, and the hash is seeded per detector, so a
// client cannot pick a path that collides with a trained one.
type profile struct {
	n     int
	paths []uint64
	len   Welford
}

// find searches p's set (none when p is nil) for the path hashed to h.
func (p *profile) find(h uint64) (i int, seen bool) {
	if p == nil {
		return 0, false
	}
	return slices.BinarySearch(p.paths, h)
}

// Detector implements the paper's section 9 future work: "a simple
// profile building module and anomaly detector ... to support
// anomaly-based intrusion detection in addition to the signature-
// based". Profiles are keyed by principal (user identity or client
// address). It is safe for concurrent use. Each profile is bounded
// (maxProfilePaths), and so is the number of profiles (maxProfiles).
type Detector struct {
	cfg      AnomalyConfig
	seed     maphash.Seed
	mu       sync.RWMutex
	profiles map[string]*profile
}

// NewDetector returns an empty detector.
func NewDetector(cfg AnomalyConfig) *Detector {
	if cfg.MinTraining <= 0 {
		cfg.MinTraining = DefaultAnomalyConfig().MinTraining
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultAnomalyConfig().Threshold
	}
	if cfg.NewPathWeight <= 0 {
		cfg.NewPathWeight = DefaultAnomalyConfig().NewPathWeight
	}
	if cfg.LengthZMax <= 0 {
		cfg.LengthZMax = DefaultAnomalyConfig().LengthZMax
	}
	return &Detector{cfg: cfg, seed: maphash.MakeSeed(), profiles: make(map[string]*profile)}
}

// Train records one legitimate observation for principal. The paper's
// item 7 (legitimate access request patterns) feeds this: "This
// information can be used to derive profiles that describe typical
// behavior of users".
func (d *Detector) Train(principal, path string, inputLen int) {
	h := maphash.String(d.seed, path)
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.profiles[principal]
	i, seen := p.find(h)
	d.train(p, principal, h, i, seen, inputLen)
}

// train folds the observation of the path hashed to h, found at i, into
// p, principal's profile (nil: none yet, and none made once the table is
// full).
func (d *Detector) train(p *profile, principal string, h uint64, i int, seen bool, inputLen int) {
	if p == nil {
		if len(d.profiles) >= maxProfiles {
			return
		}
		p = new(profile)
		d.profiles[principal] = p
	}
	p.n++
	if !seen && len(p.paths) < maxProfilePaths {
		p.paths = slices.Insert(p.paths, i, h)
	}
	p.len.Observe(float64(inputLen))
}

// Observe is Unusual followed by Train under one lock, one profile lookup
// and one path search: it scores the observation against the profile as
// it stood before it, then folds it in. The guard calls it once per grant.
func (d *Detector) Observe(principal, path string, inputLen int) (unusual bool) {
	h := maphash.String(d.seed, path)
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.profiles[principal]
	i, seen := p.find(h)
	unusual = d.score(p, seen, inputLen) >= d.cfg.Threshold
	d.train(p, principal, h, i, seen, inputLen)
	return unusual
}

// Score rates how anomalous the observation is for principal: 0 is
// normal; contributions come from never-seen paths and input lengths
// far from the trained mean. An untrained or unknown principal scores 0
// (no basis for suspicion — the signature engine covers that case).
func (d *Detector) Score(principal, path string, inputLen int) float64 {
	h := maphash.String(d.seed, path)
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := d.profiles[principal]
	_, seen := p.find(h)
	return d.score(p, seen, inputLen)
}

// score rates an observation against p, seen if p holds its path.
func (d *Detector) score(p *profile, seen bool, inputLen int) float64 {
	if p == nil || p.n < d.cfg.MinTraining {
		return 0
	}
	score := 0.0
	if !seen {
		score += d.cfg.NewPathWeight
	}
	score += p.len.Z(float64(inputLen), d.cfg.LengthZMax)
	return score
}

// Unusual reports whether the observation scores at or above the
// configured threshold.
func (d *Detector) Unusual(principal, path string, inputLen int) bool {
	return d.Score(principal, path, inputLen) >= d.cfg.Threshold
}

// Trained returns the number of observations recorded for principal.
func (d *Detector) Trained(principal string) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if p, ok := d.profiles[principal]; ok {
		return p.n
	}
	return 0
}

// Threshold exposes the configured anomaly threshold.
func (d *Detector) Threshold() float64 {
	return d.cfg.Threshold
}
