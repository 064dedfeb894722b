package notify

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gaaapi/internal/retry"
)

// flakyNotifier fails the first failN deliveries, then succeeds; it can
// also be told to panic instead of erroring.
type flakyNotifier struct {
	mu     sync.Mutex
	failN  int
	panics bool
	calls  int
	got    []Message
}

var errDown = errors.New("transport down")

func (f *flakyNotifier) Notify(_ context.Context, m Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls <= f.failN {
		if f.panics {
			panic("transport exploded")
		}
		return errDown
	}
	f.got = append(f.got, m)
	return nil
}

func (f *flakyNotifier) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func TestReliableRetriesTransientFailure(t *testing.T) {
	inner := &flakyNotifier{failN: 2}
	r := NewReliable(inner, nil)
	if err := r.Notify(context.Background(), Message{Tag: "t"}); err != nil {
		t.Fatalf("Notify: %v (two transient failures within three attempts)", err)
	}
	st := r.Stats()
	if st.Delivered != 1 || st.Attempts != 3 || st.Retries != 2 || st.Failures != 0 {
		t.Errorf("stats = %+v, want delivered=1 attempts=3 retries=2", st)
	}
	if inner.callCount() != 3 {
		t.Errorf("inner calls = %d, want 3", inner.callCount())
	}
}

func TestReliableRecoversPanic(t *testing.T) {
	inner := &flakyNotifier{failN: 1, panics: true}
	r := NewReliable(inner, nil)
	if err := r.Notify(context.Background(), Message{}); err != nil {
		t.Fatalf("Notify: %v (panic on first attempt must be retried)", err)
	}
	if st := r.Stats(); st.Delivered != 1 || st.Retries != 1 {
		t.Errorf("stats = %+v, want one delivery after one retried panic", st)
	}
}

func TestReliableBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	inner := &flakyNotifier{failN: 1 << 30} // fails forever (until lowered)
	r := NewReliable(inner, clock)
	ctx := context.Background()

	// breakerThreshold exhausted deliveries trip the breaker.
	for i := 0; i < breakerThreshold; i++ {
		if err := r.Notify(ctx, Message{}); !errors.Is(err, errDown) {
			t.Fatalf("Notify %d: %v, want errDown", i, err)
		}
	}
	if got := r.BreakerState(); got != retry.Open {
		t.Fatalf("breaker = %v, want open after %d exhausted deliveries", got, breakerThreshold)
	}

	// Open: the hot path is short-circuited, the dead transport not hit.
	before := inner.callCount()
	if err := r.Notify(ctx, Message{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Notify while open: %v, want ErrUnavailable", err)
	}
	if inner.callCount() != before {
		t.Error("open breaker still reached the inner notifier")
	}
	if st := r.Stats(); st.ShortCircuits != 1 {
		t.Errorf("short-circuits = %d, want 1", st.ShortCircuits)
	}

	// Cooldown elapses; the transport recovers; the probe closes it.
	now = now.Add(breakerCooldown)
	inner.mu.Lock()
	inner.failN = 0
	inner.mu.Unlock()
	if got := r.BreakerState(); got != retry.HalfOpen {
		t.Fatalf("breaker = %v, want half-open after cooldown", got)
	}
	if err := r.Notify(ctx, Message{Tag: "probe"}); err != nil {
		t.Fatalf("probe delivery: %v", err)
	}
	if got := r.BreakerState(); got != retry.Closed {
		t.Fatalf("breaker = %v, want closed after successful probe", got)
	}
	if st := r.Stats(); st.BreakerOpens != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v, want one open and the probe delivered", st)
	}
}

// TestReliableBreakerConcurrent exercises the full open/half-open/close
// cycle from many goroutines; run under -race it proves the breaker and
// the counters coherent under contention.
func TestReliableBreakerConcurrent(t *testing.T) {
	inner := &flakyNotifier{failN: 40}
	r := NewReliable(inner, nil)
	// One attempt per delivery and a 1ms cooldown, so the cycle turns
	// many times within the test.
	r.policy = retry.Policy{MaxAttempts: 1}
	r.breaker = retry.NewBreaker(breakerThreshold, time.Millisecond, nil)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = r.Notify(context.Background(), Message{})
				_ = r.Stats()
				time.Sleep(time.Millisecond / 4)
			}
		}()
	}
	wg.Wait()
	st := r.Stats()
	if st.Delivered == 0 {
		t.Errorf("stats = %+v, want recovery deliveries once the transport healed", st)
	}
	if st.BreakerOpens == 0 {
		t.Errorf("stats = %+v, want the breaker to have opened under sustained failure", st)
	}
	if got := r.BreakerState(); got != retry.Closed {
		t.Errorf("final breaker state = %v, want closed after recovery", got)
	}
}

// TestMailboxLatencyCancelled: a context cancelled during the synthetic
// delivery latency aborts the delivery without recording the message.
func TestMailboxLatencyCancelled(t *testing.T) {
	mb := NewMailbox(time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- mb.Notify(ctx, Message{Tag: "slow"}) }()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Notify = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Notify did not return after cancellation")
	}
	if mb.Count() != 0 {
		t.Errorf("mailbox recorded %d message(s) from a cancelled delivery", mb.Count())
	}
}
