// Package adaptive is the self-adaptive threat-scoring engine: it
// learns per-resource and per-source request profiles online from
// streaming statistics and closes the loop the paper leaves open —
// instead of an operator hand-setting the tri-level threat model, a
// continuous anomaly signal drives it, with hysteresis so the level
// cannot flap, and per-source scores feed the netblock layer ahead of
// any global escalation (ROADMAP item 1; Guyet et al., "Self-adaptive
// web intrusion detection system").
//
// The engine is fed one Sample per authorization decision and folds it
// in on the caller's goroutine, so a block or raise the sample earns is
// in force when ObserveRequest returns, and the whole engine is a
// deterministic function of the sample stream (every decay, score,
// raise and renewal is computed from sample timestamps, never from the
// wall clock). The engine only raises the level and renews its hold;
// the level falls by the threat manager's timed step-down alone.
//
// Profile features per source: request rate (sliding EWMA over a
// decaying event counter), error ratio (EWMA of the denial
// indicator), and path entropy over a bounded path histogram — a
// scanner walking many distinct paths scores high where a human
// browsing a handful scores low. Per resource: input-length moments
// (the shared ids.Welford core) and a charset-class histogram of the
// path+query bytes, the parameter-shape sketch that catches encoded
// and quote-heavy payloads against resources trained on clean ones.
package adaptive

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gaaapi/internal/ids"
	"gaaapi/internal/netblock"
)

// Sample is one request observation: what the guard saw and how the
// authorization phase answered.
type Sample struct {
	// Time is the request instant (campaign simulated time or wall
	// clock); every decay computation keys off it.
	Time time.Time
	// Source is the client address.
	Source string
	// User is the authenticated principal ("" anonymous).
	User string
	// Path is the request path, Query the raw query string.
	Path  string
	Query string
	// InputLen is the operation input length.
	InputLen int
	// Denied reports whether the authorization decision was No.
	Denied bool
	// Severity is the worst IDS report severity the request triggered
	// (0 when it triggered none).
	Severity ids.Severity
}

// Config tunes the engine. The zero value is unusable; use Defaults
// and override fields.
type Config struct {
	// HalfLife is the decay half-life of the sliding rates, per-source
	// scores and the global signal.
	HalfLife time.Duration
	// MinSamples is the evidence floor (local + merged remote samples)
	// before a source may be blocked.
	MinSamples int
	// HighRaise is the signal that lifts the level to high; above
	// highLower it renews high's hold. HighRaise > highLower.
	HighRaise float64
	// BlockScore is the per-source score at which the source is
	// blocked, for blockFor.
	BlockScore float64
}

// Defaults returns the tuning the demo deployment and experiments use.
func Defaults() Config {
	return Config{
		HalfLife:   30 * time.Second,
		MinSamples: 8,
		HighRaise:  1.6,
		BlockScore: 1.5,
	}
}

// The tuning no deployment varies. Each score component is normalized
// into [0,1] before weighting, so the score is bounded by the weights'
// sum (DESIGN.md's adaptive-scorer section gives the reason for each
// value).
const (
	// minTraining is the number of observations a resource profile
	// needs before its shape sketch contributes to scoring.
	minTraining = 20

	rateWeight     = 0.8
	errorWeight    = 1.2
	entropyWeight  = 0.6
	shapeWeight    = 0.8
	severityWeight = 1.0
	// rateRef is the per-source request rate (req/s) at which the rate
	// component reaches 0.5; entropyRef the path entropy (bits) at
	// which the entropy component does.
	rateRef    = 10
	entropyRef = 3

	// Hysteresis: the signal must reach mediumRaise to lift the level
	// to medium, and above mediumLower it renews medium's hold;
	// highLower is high's renewal floor.
	mediumRaise = 0.9
	mediumLower = 0.45
	highLower   = 0.8

	// blockFor is how long a hot source stays blocked.
	blockFor = 10 * time.Minute

	// maxSources / maxResources bound the profile maps; the
	// least-interesting entry is evicted past the cap.
	maxSources   = 4096
	maxResources = 1024
	// checkpointEvery journals a profile checkpoint after this many
	// training observations on a resource.
	checkpointEvery = 128
	// scoreEventDelta journals a per-source score event whenever the
	// score moved this far from the last journaled value.
	scoreEventDelta = 0.5
)

// charset classes of the parameter-shape sketch.
const (
	classLower = iota
	classUpper
	classDigit
	classSep     // '/', '.', '-', '_'
	classEscape  // '%' — URL-encoding and overlong-UTF8 probes
	classSpecial // quotes, angles, separators attackers lean on
	classOther
	nClasses
)

func byteClass(b byte) int {
	switch {
	case b >= 'a' && b <= 'z':
		return classLower
	case b >= 'A' && b <= 'Z':
		return classUpper
	case b >= '0' && b <= '9':
		return classDigit
	case b == '/' || b == '.' || b == '-' || b == '_':
		return classSep
	case b == '%':
		return classEscape
	case b == '\'' || b == '"' || b == '<' || b == '>' || b == ';' ||
		b == '|' || b == '&' || b == '`' || b == '\\':
		return classSpecial
	default:
		return classOther
	}
}

// maxSourcePaths bounds each source's path histogram; entropy above
// this many distinct paths saturates anyway.
const maxSourcePaths = 32

// sourceProfile is the per-source behaviour sketch.
type sourceProfile struct {
	n      int     // local samples
	merged int     // samples merged from peers (additive)
	rate   float64 // decaying event counter (rate = rate*ln2/halflife)
	err    float64 // EWMA of the denial indicator
	paths  map[string]int
	total  int     // sum of path counts
	score  float64 // current anomaly score (decays between samples)
	last   time.Time
	// journaled / journaledN track the score and sample count last
	// emitted as a score event, so events carry sample deltas.
	journaled  float64
	journaledN int
	// blockedUntil is the deadline of the source's last block: a hot
	// source is blocked again once it has passed.
	blockedUntil time.Time
}

// resourceProfile is the per-resource (path) request-shape baseline.
type resourceProfile struct {
	n       int
	length  ids.Welford
	classes [nClasses]float64 // accumulated class distribution mass
	dirty   int               // training observations since last checkpoint
}

// Engine holds the live profiles and drives the threat manager and
// block set. All state mutations happen under mu.
type Engine struct {
	cfg    Config
	threat *ids.Manager
	blocks *netblock.Set

	mu        sync.Mutex
	sources   map[string]*sourceProfile
	resources map[string]*resourceProfile
	signal    float64 // smoothed global anomaly signal
	sigLast   time.Time

	journalScore   func(ScoreEvent)
	journalProfile func(ProfileCheckpoint)

	samples      atomic.Uint64
	sourceBlocks atomic.Uint64
	raises       atomic.Uint64
}

// New builds an engine. threat and blocks may be nil (score-only
// mode, used by the fuzz harness).
func New(cfg Config, threat *ids.Manager, blocks *netblock.Set) *Engine {
	d := Defaults()
	if cfg.HalfLife <= 0 {
		cfg.HalfLife = d.HalfLife
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = d.MinSamples
	}
	if cfg.HighRaise <= 0 {
		cfg.HighRaise = d.HighRaise
	}
	if cfg.BlockScore <= 0 {
		cfg.BlockScore = d.BlockScore
	}
	return &Engine{
		cfg:       cfg,
		threat:    threat,
		blocks:    blocks,
		sources:   make(map[string]*sourceProfile),
		resources: make(map[string]*resourceProfile),
	}
}

// SetJournal installs the persistence/replication taps: score
// receives per-source score events, profile receives resource profile
// checkpoints. Call before serving traffic (statestore.Attach does).
func (e *Engine) SetJournal(score func(ScoreEvent), profile func(ProfileCheckpoint)) {
	e.mu.Lock()
	e.journalScore, e.journalProfile = score, profile
	e.mu.Unlock()
}

// Close is a no-op: the engine owns no goroutine, file or timer, so
// callers that release components uniformly may call it at any time.
func (e *Engine) Close() {}

// decay returns the exponential decay factor for dt at the configured
// half-life; out-of-order timestamps decay nothing.
func (e *Engine) decay(dt time.Duration) float64 {
	if dt <= 0 {
		return 1
	}
	return math.Exp2(-float64(dt) / float64(e.cfg.HalfLife))
}

// errAlpha is the fixed EWMA weight of the error-ratio estimator —
// count-based, so bursts with identical timestamps still move it.
const errAlpha = 1.0 / 8

// ObserveRequest folds one sample into the profiles, scores it and
// applies enforcement before it returns. Deterministic in the sample
// stream.
func (e *Engine) ObserveRequest(s Sample) {
	e.samples.Add(1)
	e.mu.Lock()

	src := e.source(s.Source)
	res := e.resource(s.Path)

	// --- update the per-source sketch ---
	w := e.decay(s.Time.Sub(src.last))
	src.rate = src.rate*w + 1
	src.err += (boolF(s.Denied) - src.err) * errAlpha
	src.observePath(s.Path)
	src.n++

	// --- score against the pre-update resource baseline ---
	inst := e.scoreLocked(src, res, s)

	// Per-source score: rises instantly, decays with the half-life.
	src.score = math.Max(inst, src.score*w)
	src.last = s.Time

	// --- train the resource shape on granted traffic only ---
	var (
		cp     ProfileCheckpoint
		emitCP bool
	)
	if !s.Denied {
		res.train(s)
		res.dirty++
		if res.dirty >= checkpointEvery {
			res.dirty = 0
			if e.journalProfile != nil {
				cp, emitCP = checkpoint(s.Path, res, s.Time), true
			}
		}
	}

	// --- global signal: EWMA of instantaneous scores ---
	gw := e.decay(s.Time.Sub(e.sigLast))
	alpha := 1 - gw
	if alpha < errAlpha {
		alpha = errAlpha // bursts at one instant must still move it
	}
	e.signal += (inst - e.signal) * alpha
	e.sigLast = s.Time

	blockSrc, ev, emit := e.enforceSourceLocked(s.Source, src, s.Time)
	raise, renew := e.levelLocked()
	journalScore, journalProfile := e.journalScore, e.journalProfile
	e.mu.Unlock()

	// Side effects outside the lock: the block set and the manager
	// have their own locking and journal taps, and a journal append may
	// compact the store, which snapshots this engine through e.mu.
	if emitCP {
		journalProfile(cp)
	}
	if blockSrc {
		e.blocks.Block(s.Source, blockFor)
		e.sourceBlocks.Add(1)
	}
	if emit && journalScore != nil {
		journalScore(ev)
	}
	if renew {
		if raise > 0 {
			e.threat.Escalate(raise)
		}
		e.threat.Renew(s.Time)
	}
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// scoreLocked computes the instantaneous anomaly score of the sample:
// each component normalized to [0,1], then weighted. Monotone in
// Severity by construction (the fuzz target proves it stays so).
func (e *Engine) scoreLocked(src *sourceProfile, res *resourceProfile, s Sample) float64 {
	rate := src.rate * math.Ln2 / e.cfg.HalfLife.Seconds()
	score := rateWeight * (rate / (rate + rateRef))
	score += errorWeight * src.err
	h := src.entropy()
	score += entropyWeight * (h / (h + entropyRef))
	if res.n >= minTraining {
		z := res.length.Z(float64(s.InputLen), 4) / 4
		score += shapeWeight * (z + res.classDistance(s)) / 2
	}
	if s.Severity > 0 {
		sev := float64(s.Severity) / float64(ids.SevHigh)
		if sev > 1 {
			sev = 1
		}
		score += severityWeight * sev
	}
	return score
}

// enforceSourceLocked decides whether the source crossed the block
// threshold and whether its score is worth journaling.
func (e *Engine) enforceSourceLocked(addr string, src *sourceProfile, at time.Time) (block bool, ev ScoreEvent, emit bool) {
	evidence := src.n + src.merged
	if !at.Before(src.blockedUntil) && e.blocks != nil &&
		src.score >= e.cfg.BlockScore && evidence >= e.cfg.MinSamples {
		src.blockedUntil = at.Add(blockFor)
		block = true
	}
	delta := src.score - src.journaled
	if block || math.Abs(delta) >= scoreEventDelta {
		ev = ScoreEvent{Source: addr, Score: src.score, Samples: src.n - src.journaledN, At: at}
		src.journaled, src.journaledN = src.score, src.n
		emit = true
	}
	return block, ev, emit
}

// levelLocked applies the hysteresis to the global signal against the
// manager's level: a signal at a raise threshold asks for a raise, and
// a raise, or a signal above the current level's lower threshold,
// renews the level's hold. Oscillating load therefore cannot flap the
// level: it falls only once the signal has stayed low for a whole hold.
func (e *Engine) levelLocked() (raise ids.Level, renew bool) {
	if e.threat == nil {
		return 0, false
	}
	cur := e.threat.Level()
	switch {
	case e.signal >= e.cfg.HighRaise:
		raise = ids.High
	case e.signal >= mediumRaise:
		raise = ids.Medium
	}
	if raise > cur {
		e.raises.Add(1)
		return raise, true
	}
	switch cur {
	case ids.High:
		return 0, e.signal > highLower
	case ids.Medium:
		return 0, e.signal > mediumLower
	}
	return 0, false
}

// source returns (creating) the profile for addr, evicting the
// least-interesting profile past the cap.
func (e *Engine) source(addr string) *sourceProfile {
	if p, ok := e.sources[addr]; ok {
		return p
	}
	if len(e.sources) >= maxSources {
		e.evictSource()
	}
	p := &sourceProfile{paths: make(map[string]int, 4)}
	e.sources[addr] = p
	return p
}

// evictSource drops the lowest-scoring, least-recently-seen profile
// (deterministic tie-break on the address).
func (e *Engine) evictSource() {
	var victim string
	var vp *sourceProfile
	for addr, p := range e.sources {
		if vp == nil || p.score < vp.score ||
			(p.score == vp.score && (p.last.Before(vp.last) ||
				(p.last.Equal(vp.last) && addr < victim))) {
			victim, vp = addr, p
		}
	}
	delete(e.sources, victim)
}

func (e *Engine) resource(path string) *resourceProfile {
	if p, ok := e.resources[path]; ok {
		return p
	}
	if len(e.resources) >= maxResources {
		e.evictResource()
	}
	p := &resourceProfile{}
	e.resources[path] = p
	return p
}

// evictResource drops the least-trained resource (deterministic
// tie-break on the path).
func (e *Engine) evictResource() {
	var victim string
	var vp *resourceProfile
	for path, p := range e.resources {
		if vp == nil || p.n < vp.n || (p.n == vp.n && path < victim) {
			victim, vp = path, p
		}
	}
	delete(e.resources, victim)
}

// observePath counts the path in the bounded histogram, evicting the
// rarest path (deterministic tie-break) when full.
func (p *sourceProfile) observePath(path string) {
	if _, ok := p.paths[path]; !ok && len(p.paths) >= maxSourcePaths {
		var victim string
		min := -1
		for k, n := range p.paths {
			if min < 0 || n < min || (n == min && k < victim) {
				victim, min = k, n
			}
		}
		p.total -= p.paths[victim]
		delete(p.paths, victim)
	}
	p.paths[path]++
	p.total++
}

// entropy is the Shannon entropy (bits) of the source's path
// distribution.
func (p *sourceProfile) entropy() float64 {
	if p.total == 0 {
		return 0
	}
	h := 0.0
	total := float64(p.total)
	for _, n := range p.paths {
		f := float64(n) / total
		h -= f * math.Log2(f)
	}
	return h
}

// train folds a granted request's shape into the resource baseline.
func (r *resourceProfile) train(s Sample) {
	r.n++
	r.length.Observe(float64(s.InputLen))
	var hist [nClasses]float64
	classHistogram(&hist, s.Path, s.Query)
	for i := range hist {
		r.classes[i] += hist[i]
	}
}

// classDistance is half the L1 distance between the request's charset
// class distribution and the trained baseline distribution, in [0,1].
func (r *resourceProfile) classDistance(s Sample) float64 {
	var hist [nClasses]float64
	classHistogram(&hist, s.Path, s.Query)
	var baseTotal float64
	for _, v := range r.classes {
		baseTotal += v
	}
	if baseTotal == 0 {
		return 0
	}
	d := 0.0
	for i := range hist {
		d += math.Abs(hist[i] - r.classes[i]/baseTotal)
	}
	return d / 2
}

// classHistogram fills hist with the normalized charset-class
// distribution of path+query.
func classHistogram(hist *[nClasses]float64, path, query string) {
	n := len(path) + len(query)
	if n == 0 {
		return
	}
	for i := 0; i < len(path); i++ {
		hist[byteClass(path[i])]++
	}
	for i := 0; i < len(query); i++ {
		hist[byteClass(query[i])]++
	}
	for i := range hist {
		hist[i] /= float64(n)
	}
}

// --- observation API (status lines, metrics, tests) ---

// Stats is a point-in-time summary of the engine.
type Stats struct {
	Signal       float64
	Sources      int
	Resources    int
	Samples      uint64
	SourceBlocks uint64
	Raises       uint64
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		Signal:    e.signal,
		Sources:   len(e.sources),
		Resources: len(e.resources),
	}
	e.mu.Unlock()
	s.Samples = e.samples.Load()
	s.SourceBlocks = e.sourceBlocks.Load()
	s.Raises = e.raises.Load()
	return s
}

// Signal returns the smoothed global anomaly signal.
func (e *Engine) Signal() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.signal
}

// SourceScore returns the current per-source score (0 for an unknown
// source).
func (e *Engine) SourceScore(addr string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.sources[addr]; ok {
		return p.score
	}
	return 0
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
