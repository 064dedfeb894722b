// Package retry provides bounded retry with exponential backoff and a
// small circuit breaker for side-effecting integrations (notification
// delivery, audit sinks, blacklist updates): a transient failure is
// retried off the policy semantics, and a dead dependency trips the
// breaker so the request hot path stops paying for it and the decision
// degrades per policy instead of stalling.
package retry

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Policy bounds a retried operation.
type Policy struct {
	// MaxAttempts is the total number of attempts (first try included);
	// values below 1 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the sleep before the first retry (default 1ms).
	BaseDelay time.Duration
	// Multiplier grows the delay after every retry (default 2).
	Multiplier float64
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay that is randomized away,
	// in [0,1]: 0 keeps the deterministic exponential schedule, 1 is
	// full jitter — uniform over (0, delay]. A fleet of peers retrying
	// a recovered node on the same deterministic schedule is a
	// thundering herd; jitter decorrelates them.
	Jitter float64
}

// uniform supplies the jitter's uniform [0,1) draws: the process-wide
// source (the package's tests seed their own).
var uniform = rand.Float64

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Delay returns the backoff before retry number attempt (attempt 1 is
// the sleep after the first failure): the capped exponential schedule
// with the policy's jitter fraction randomized. It is what Do sleeps
// between attempts, exported so callers running their own retry loops
// (the cluster replication pusher) share the same jittered schedule.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		// Keep (1-Jitter) of the delay deterministic and spread the
		// rest uniformly; Jitter=1 is classic full jitter over (0, d].
		d = d*(1-p.Jitter) + d*p.Jitter*uniform()
		if d < 1 {
			d = 1 // never a zero sleep: that busy-spins the retry loop
		}
	}
	return time.Duration(d)
}

// Do runs fn until it succeeds, the attempts are exhausted, or ctx is
// cancelled; the backoff sleep is interruptible by ctx. It returns the
// number of attempts made and the last error (nil on success).
func Do(ctx context.Context, p Policy, fn func(context.Context) error) (int, error) {
	p = p.withDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		if err = fn(ctx); err == nil {
			return attempt, nil
		}
		if attempt >= p.MaxAttempts {
			return attempt, err
		}
		t := time.NewTimer(p.Delay(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return attempt, err
		case <-t.C:
		}
	}
}

// State is the circuit-breaker state.
type State int

const (
	// Closed: calls flow normally; consecutive failures are counted.
	Closed State = iota
	// Open: calls are rejected without reaching the dependency.
	Open
	// HalfOpen: the cooldown elapsed; a single probe call is let
	// through to test whether the dependency recovered.
	HalfOpen
)

// String returns "closed", "open" or "half-open".
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a consecutive-failure circuit breaker. It is safe for
// concurrent use. The zero value is not usable; construct with
// NewBreaker.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	clock     func() time.Time

	mu       sync.Mutex
	state    State
	fails    int
	openedAt time.Time
	probing  bool
	opens    uint64
}

// NewBreaker returns a breaker that opens after threshold consecutive
// failures (minimum 1) and half-opens after cooldown. A nil clock
// means time.Now.
func NewBreaker(threshold int, cooldown time.Duration, clock func() time.Time) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	if clock == nil {
		clock = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, clock: clock}
}

// refresh transitions Open -> HalfOpen once the cooldown elapsed.
// Callers hold b.mu.
func (b *Breaker) refresh() {
	if b.state == Open && b.clock().Sub(b.openedAt) >= b.cooldown {
		b.state = HalfOpen
		b.probing = false
	}
}

// Allow reports whether a call may proceed. In half-open state exactly
// one probe is admitted until its Record arrives.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refresh()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return false
	}
}

// Record reports the result of an admitted call: success closes the
// breaker, failure opens (or re-opens) it.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refresh()
	if err == nil {
		b.state = Closed
		b.fails = 0
		b.probing = false
		return
	}
	switch b.state {
	case HalfOpen:
		b.trip()
	case Closed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	}
}

// trip moves to Open. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.fails = 0
	b.probing = false
	b.openedAt = b.clock()
	b.opens++
}

// State returns the current state (Open lazily refreshed to HalfOpen).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refresh()
	return b.state
}

// Opens counts how many times the breaker tripped open.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
