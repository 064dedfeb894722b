package notify

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gaaapi/internal/retry"
)

// ErrUnavailable is returned by Reliable.Notify while the circuit
// breaker is open: the notifier is presumed dead and the hot path does
// not pay for another delivery attempt. Policy semantics decide what a
// failed mandatory notification means (rr_cond_notify on:failure fails
// the authorization status, paper section 6).
var ErrUnavailable = errors.New("notify: notifier unavailable (circuit open)")

// Reliable wraps a Notifier with bounded retry-with-backoff, panic
// recovery, and a consecutive-failure circuit breaker, so a flaky
// transport is retried and a dead one degrades fast instead of
// stalling every request carrying a notify condition.
type Reliable struct {
	inner   Notifier
	policy  retry.Policy
	breaker *retry.Breaker

	delivered     atomic.Uint64
	failures      atomic.Uint64
	attempts      atomic.Uint64
	retries       atomic.Uint64
	shortCircuits atomic.Uint64
}

// A delivery makes three attempts, 5ms backoff doubling to 250ms
// between them (NewReliable's policy); the breaker opens after three
// exhausted deliveries and lets a probe through a second later.
const (
	breakerThreshold = 3
	breakerCooldown  = time.Second
)

// NewReliable wraps inner. clock is the breaker's time source (nil:
// time.Now), so its cooldown follows a simulated clock.
func NewReliable(inner Notifier, clock func() time.Time) *Reliable {
	return &Reliable{
		inner:   inner,
		policy:  retry.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
		breaker: retry.NewBreaker(breakerThreshold, breakerCooldown, clock),
	}
}

// Notify implements Notifier.
func (r *Reliable) Notify(ctx context.Context, m Message) error {
	if !r.breaker.Allow() {
		r.shortCircuits.Add(1)
		return ErrUnavailable
	}
	attempts, err := retry.Do(ctx, r.policy, func(ctx context.Context) error {
		return r.deliver(ctx, m)
	})
	r.attempts.Add(uint64(attempts))
	if attempts > 1 {
		r.retries.Add(uint64(attempts - 1))
	}
	r.breaker.Record(err)
	if err != nil {
		r.failures.Add(1)
		return err
	}
	r.delivered.Add(1)
	return nil
}

// deliver calls the inner notifier with panic recovery: a panicking
// transport counts as a failed delivery, not a crashed request.
func (r *Reliable) deliver(ctx context.Context, m Message) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("notify: notifier panic: %v", p)
		}
	}()
	return r.inner.Notify(ctx, m)
}

// ReliableStats is a point-in-time counter snapshot.
type ReliableStats struct {
	// Delivered / Failures count Notify calls that reached the inner
	// notifier and succeeded / exhausted their retries.
	Delivered, Failures uint64
	// Attempts counts individual delivery attempts; Retries the ones
	// beyond each call's first.
	Attempts, Retries uint64
	// ShortCircuits counts calls rejected while the breaker was open.
	ShortCircuits uint64
	// Breaker is the current breaker state; BreakerOpens how many
	// times it tripped.
	Breaker      retry.State
	BreakerOpens uint64
}

// Stats returns current counters and breaker state.
func (r *Reliable) Stats() ReliableStats {
	return ReliableStats{
		Delivered:     r.delivered.Load(),
		Failures:      r.failures.Load(),
		Attempts:      r.attempts.Load(),
		Retries:       r.retries.Load(),
		ShortCircuits: r.shortCircuits.Load(),
		Breaker:       r.breaker.State(),
		BreakerOpens:  r.breaker.Opens(),
	}
}

// BreakerState returns the current circuit state.
func (r *Reliable) BreakerState() retry.State { return r.breaker.State() }
