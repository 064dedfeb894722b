package ids

import (
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
type profile struct {
	n     int
	paths map[string]struct{}
	len   Welford
}

func (p *profile) observe(path string, inputLen int) {
	p.n++
	if len(p.paths) < maxProfilePaths {
		p.paths[path] = struct{}{}
	}
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
	return &Detector{cfg: cfg, profiles: make(map[string]*profile)}
}

// Train records one legitimate observation for principal. The paper's
// item 7 (legitimate access request patterns) feeds this: "This
// information can be used to derive profiles that describe typical
// behavior of users".
func (d *Detector) Train(principal, path string, inputLen int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.train(d.profiles[principal], principal, path, inputLen)
}

// train folds the observation into p, principal's profile (nil: none yet,
// and none made once the table is full).
func (d *Detector) train(p *profile, principal, path string, inputLen int) {
	if p == nil {
		if len(d.profiles) >= maxProfiles {
			return
		}
		p = &profile{paths: make(map[string]struct{})}
		d.profiles[principal] = p
	}
	p.observe(path, inputLen)
}

// Observe is Unusual followed by Train under one lock and one profile
// lookup: it scores the observation against the profile as it stood
// before it, then folds it in. The guard calls it once per grant.
func (d *Detector) Observe(principal, path string, inputLen int) (unusual bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.profiles[principal]
	unusual = d.score(p, path, inputLen) >= d.cfg.Threshold
	d.train(p, principal, path, inputLen)
	return unusual
}

// Score rates how anomalous the observation is for principal: 0 is
// normal; contributions come from never-seen paths and input lengths
// far from the trained mean. An untrained or unknown principal scores 0
// (no basis for suspicion — the signature engine covers that case).
func (d *Detector) Score(principal, path string, inputLen int) float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.score(d.profiles[principal], path, inputLen)
}

func (d *Detector) score(p *profile, path string, inputLen int) float64 {
	if p == nil || p.n < d.cfg.MinTraining {
		return 0
	}
	score := 0.0
	if _, seen := p.paths[path]; !seen {
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
