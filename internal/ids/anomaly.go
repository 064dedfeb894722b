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

// DefaultAnomalyConfig returns the tuning E8 uses.
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

// full reports whether p's path set has stopped recording: no
// observation can change it, so folding one in needs no search.
func (p *profile) full() bool {
	return p != nil && len(p.paths) >= maxProfilePaths
}

// count folds one observation's input length into p's moments.
func (p *profile) count(inputLen int) {
	p.n++
	p.len.Observe(float64(inputLen))
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
// behavior of users". A full profile only counts it: the path is hashed
// and searched only when it may be inserted.
func (d *Detector) Train(principal, path string, inputLen int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.profiles[principal]
	if p.full() {
		p.count(inputLen)
		return
	}
	h := maphash.String(d.seed, path)
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
	if !seen && len(p.paths) < maxProfilePaths {
		p.paths = slices.Insert(p.paths, i, h)
	}
	p.count(inputLen)
}

// Observe is Unusual followed by Train under one lock and one profile
// lookup: it scores the observation against the profile as it stood
// before it, then folds it in. A guard given a detector
// (gaahttp.Config.Anomaly) calls it once per grant.
//
// The path is hashed and searched only when the answer can matter.
// While the set is not full, a new path is inserted. Once it is full,
// novelty decides the verdict only when the length term lies in
// [Threshold − NewPathWeight, Threshold): below the threshold on a
// known path, at or above it on a new one. Any other grant on a full
// profile updates its count and length moments alone, and its verdict
// is the same for a known path and a new one.
func (d *Detector) Observe(principal, path string, inputLen int) (unusual bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.profiles[principal]
	known, novel := d.scores(p, inputLen)
	if p.full() && (known >= d.cfg.Threshold || novel < d.cfg.Threshold) {
		p.count(inputLen)
		return known >= d.cfg.Threshold
	}
	h := maphash.String(d.seed, path)
	i, seen := p.find(h)
	unusual = pick(seen, known, novel) >= d.cfg.Threshold
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
	known, novel := d.scores(p, inputLen)
	return pick(seen, known, novel)
}

// scores rates an observation against p both ways its path can stand:
// known if p holds the path, novel if it does not. They differ by the
// never-seen weight alone; an untrained or absent profile scores 0.
func (d *Detector) scores(p *profile, inputLen int) (known, novel float64) {
	if p == nil || p.n < d.cfg.MinTraining {
		return 0, 0
	}
	known = p.len.Z(float64(inputLen), d.cfg.LengthZMax)
	return known, d.cfg.NewPathWeight + known
}

// pick returns the score of a path seen or not.
func pick(seen bool, known, novel float64) float64 {
	if seen {
		return known
	}
	return novel
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
