package retry

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

var errFlaky = errors.New("flaky")

func TestDoSucceedsFirstAttempt(t *testing.T) {
	calls := 0
	attempts, err := Do(context.Background(), Policy{MaxAttempts: 5}, func(context.Context) error {
		calls++
		return nil
	})
	if err != nil || attempts != 1 || calls != 1 {
		t.Fatalf("attempts=%d calls=%d err=%v, want single clean attempt", attempts, calls, err)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	attempts, err := Do(context.Background(), p, func(context.Context) error {
		calls++
		if calls < 3 {
			return errFlaky
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("attempts=%d calls=%d err=%v, want success on third", attempts, calls, err)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 4, BaseDelay: time.Microsecond}
	attempts, err := Do(context.Background(), p, func(context.Context) error {
		calls++
		return errFlaky
	})
	if !errors.Is(err, errFlaky) || attempts != 4 || calls != 4 {
		t.Fatalf("attempts=%d calls=%d err=%v, want exhausted with last error", attempts, calls, err)
	}
}

func TestDoZeroPolicyIsSingleAttempt(t *testing.T) {
	calls := 0
	attempts, err := Do(context.Background(), Policy{}, func(context.Context) error {
		calls++
		return errFlaky
	})
	if attempts != 1 || calls != 1 || !errors.Is(err, errFlaky) {
		t.Fatalf("attempts=%d calls=%d err=%v, want exactly one attempt for the zero policy", attempts, calls, err)
	}
}

func TestDoContextCancelsBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, BaseDelay: time.Hour} // would block forever
	calls := 0
	done := make(chan struct{})
	var attempts int
	var err error
	go func() {
		attempts, err = Do(ctx, p, func(context.Context) error {
			calls++
			return errFlaky
		})
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not return after context cancellation during backoff")
	}
	if attempts != 1 || calls != 1 || !errors.Is(err, errFlaky) {
		t.Fatalf("attempts=%d calls=%d err=%v, want cancelled after first attempt", attempts, calls, err)
	}
}

func TestDoBackoffGrowsAndCaps(t *testing.T) {
	// Observed indirectly: with a multiplier of 3 and a cap equal to the
	// base, every sleep is the base delay; total wall time stays bounded.
	p := Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, Multiplier: 3, MaxDelay: time.Millisecond}
	start := time.Now()
	attempts, _ := Do(context.Background(), p, func(context.Context) error { return errFlaky })
	if attempts != 4 {
		t.Fatalf("attempts = %d, want 4", attempts)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("capped backoff took %v; cap not applied", elapsed)
	}
}

func TestDelayDeterministicWithoutJitter(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, Multiplier: 2, MaxDelay: 80 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Out-of-range attempts clamp rather than misbehave.
	if got := p.Delay(0); got != 10*time.Millisecond {
		t.Fatalf("Delay(0) = %v, want base delay", got)
	}
}

// seedJitter draws the test's jitter from a source seeded with seed.
func seedJitter(t *testing.T, seed int64) {
	prev := uniform
	uniform = rand.New(rand.NewSource(seed)).Float64
	t.Cleanup(func() { uniform = prev })
}

func TestDelayFullJitterBounds(t *testing.T) {
	seedJitter(t, 2003)
	p := Policy{
		BaseDelay: 10 * time.Millisecond, Multiplier: 2,
		MaxDelay: 80 * time.Millisecond, Jitter: 1,
	}
	for attempt := 1; attempt <= 6; attempt++ {
		det := Policy{BaseDelay: p.BaseDelay, Multiplier: p.Multiplier, MaxDelay: p.MaxDelay}.Delay(attempt)
		saw := map[time.Duration]bool{}
		for i := 0; i < 200; i++ {
			d := p.Delay(attempt)
			if d <= 0 || d > det {
				t.Fatalf("jittered Delay(%d) = %v outside (0, %v]", attempt, d, det)
			}
			saw[d] = true
		}
		if len(saw) < 10 {
			t.Fatalf("full jitter for attempt %d produced only %d distinct delays", attempt, len(saw))
		}
	}
}

func TestDelayPartialJitterKeepsFloor(t *testing.T) {
	seedJitter(t, 7)
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 100 * time.Millisecond,
		Jitter: 0.25}
	for i := 0; i < 100; i++ {
		d := p.Delay(1)
		if d < 75*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("25%% jitter gave %v, want within [75ms, 100ms]", d)
		}
	}
}

func TestDelaySeededSourceIsReproducible(t *testing.T) {
	mk := func() []time.Duration {
		seedJitter(t, 42)
		p := Policy{BaseDelay: time.Millisecond, Jitter: 1}
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = p.Delay(i + 1)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded jitter not reproducible: run1[%d]=%v run2[%d]=%v", i, a[i], i, b[i])
		}
	}
}

func TestDoAppliesJitterWithoutStalling(t *testing.T) {
	seedJitter(t, 1)
	p := Policy{MaxAttempts: 5, BaseDelay: 100 * time.Microsecond, Jitter: 1}
	start := time.Now()
	attempts, err := Do(context.Background(), p, func(context.Context) error { return errFlaky })
	if attempts != 5 || !errors.Is(err, errFlaky) {
		t.Fatalf("attempts=%d err=%v", attempts, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("jittered Do took %v; jitter must shrink, never grow, delays", elapsed)
	}
}

// newTestBreaker returns a breaker on a manual clock.
func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *time.Time) {
	now := time.Unix(0, 0)
	b := NewBreaker(threshold, cooldown, func() time.Time { return now })
	return b, &now
}

func TestBreakerLifecycle(t *testing.T) {
	b, now := newTestBreaker(3, time.Minute)

	// Closed: failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Record(errFlaky)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed below threshold", got)
	}

	// Third consecutive failure trips it open.
	b.Allow()
	b.Record(errFlaky)
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want open after threshold", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call")
	}
	if got := b.Opens(); got != 1 {
		t.Fatalf("opens = %d, want 1", got)
	}

	// Cooldown elapses: half-open, exactly one probe.
	*now = now.Add(time.Minute)
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state = %v, want half-open after cooldown", got)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker rejected the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe fails: straight back to open, counted.
	b.Record(errFlaky)
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want re-opened after failed probe", got)
	}
	if got := b.Opens(); got != 2 {
		t.Fatalf("opens = %d, want 2", got)
	}

	// Second cooldown, successful probe: closed again.
	*now = now.Add(time.Minute)
	if !b.Allow() {
		t.Fatal("half-open breaker rejected the second probe")
	}
	b.Record(nil)
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed after successful probe", got)
	}
	if !b.Allow() {
		t.Fatal("re-closed breaker rejected a call")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	for i := 0; i < 10; i++ {
		b.Allow()
		b.Record(errFlaky)
		b.Allow()
		b.Record(nil) // streak broken every time
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed (failures never consecutive)", got)
	}
	if got := b.Opens(); got != 0 {
		t.Fatalf("opens = %d, want 0", got)
	}
}

func TestBreakerConcurrent(t *testing.T) {
	b := NewBreaker(3, time.Millisecond, nil)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if b.Allow() {
					if (w+i)%2 == 0 {
						b.Record(errFlaky)
					} else {
						b.Record(nil)
					}
				}
				_ = b.State()
				_ = b.Opens()
			}
		}(w)
	}
	wg.Wait()
	// No assertion on the final state (it depends on interleaving); the
	// run must simply be race-free and the state coherent.
	if s := b.State(); s != Closed && s != Open && s != HalfOpen {
		t.Fatalf("incoherent state %v", s)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Closed: "closed", Open: "open", HalfOpen: "half-open", State(9): "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
