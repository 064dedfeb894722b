package gaahttp

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"gaaapi/internal/notify"
	"gaaapi/internal/retry"
)

// downTransport counts the deliveries that reach it and fails them
// until healed, then passes them on.
type downTransport struct {
	inner  notify.Notifier
	calls  atomic.Int64
	healed atomic.Bool
}

func (d *downTransport) Notify(ctx context.Context, m notify.Message) error {
	d.calls.Add(1)
	if !d.healed.Load() {
		return errors.New("transport down")
	}
	return d.inner.Notify(ctx, m)
}

// TestReliableBreakerFollowsStackClock: the stack's notifier breaker
// reads the stack's clock, so its cooldown elapses on simulated time.
func TestReliableBreakerFollowsStackClock(t *testing.T) {
	clock := &simClock{now: time.Date(2003, 5, 1, 9, 0, 0, 0, time.UTC)}
	transport := &downTransport{}
	st, err := NewStack(StackConfig{
		LocalPolicies: map[string]string{"*": policy72Local},
		Clock:         clock.Now,
		NotifierWrapper: func(mailbox notify.Notifier) notify.Notifier {
			transport.inner = mailbox
			return transport
		},
		ReliableNotify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	attack := func(n int) {
		t.Helper()
		// A fresh source each time: a blacklisted one is denied before
		// the notify condition fires.
		if code := adaptiveGet(st, "/cgi-bin/phf?Qalias=x", fmt.Sprintf("192.0.2.%d", n)); code != http.StatusForbidden {
			t.Fatalf("attack %d = %d, want 403", n, code)
		}
	}

	// Three attacks exhaust their retries and open the breaker.
	for n := 1; n <= 3; n++ {
		attack(n)
	}
	if got := st.Reliable.BreakerState(); got != retry.Open {
		t.Fatalf("breaker = %v after three failed notifications, want open", got)
	}
	calls := transport.calls.Load()

	// Open: the next notification never reaches the transport.
	attack(4)
	if got := transport.calls.Load(); got != calls {
		t.Fatalf("open breaker let %d deliveries through", got-calls)
	}

	// Past the cooldown on the stack's clock, the next notification is
	// the half-open probe: it reaches the healed transport and closes
	// the circuit.
	transport.healed.Store(true)
	clock.Advance(time.Second)
	attack(5)
	if got := transport.calls.Load(); got != calls+1 {
		t.Fatalf("transport saw %d deliveries after the cooldown, want the one probe", got-calls)
	}
	if got := st.Reliable.BreakerState(); got != retry.Closed {
		t.Fatalf("breaker = %v after the probe, want closed", got)
	}
	if n := st.Mailbox.Count(); n != 1 {
		t.Fatalf("mailbox holds %d notifications, want the probe's", n)
	}
}
