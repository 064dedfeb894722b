// Package notify implements the notification service behind
// rr_cond_notify and post_cond_notify (paper section 7.2: "sends email
// to the system administrator reporting time, IP address, URL attempted
// and a threat type").
//
// Real SMTP is replaced by an in-memory mailbox with a configurable
// synthetic delivery latency; the paper's section 8 shows notification
// latency dominating request cost (5.9 ms -> 53.3 ms), and the latency
// knob reproduces that shape (experiment E1).
package notify

import (
	"context"
	"sync"
	"time"

	"gaaapi/internal/audit"
)

// Message is one notification.
type Message struct {
	Time    time.Time
	To      string
	Subject string
	Body    string
	// Tag is the policy's info label, e.g. "cgiexploit".
	Tag string
}

// Notifier delivers notifications.
type Notifier interface {
	Notify(ctx context.Context, m Message) error
}

// Mailbox is an in-memory synchronous notifier. Notify blocks for the
// configured latency (interruptible by ctx), simulating mail delivery.
// The zero latency makes it instantaneous. It keeps the last 1024
// messages and counts all of them: every attack from a fresh source is
// an alert, and keeping them all would hand the heap to the attacker.
// Safe for concurrent use.
type Mailbox struct {
	latency time.Duration
	sent    *audit.Tail[Message]
}

// NewMailbox returns a mailbox with the given synthetic delivery
// latency.
func NewMailbox(latency time.Duration) *Mailbox {
	return &Mailbox{latency: latency, sent: audit.NewTail[Message](1024)}
}

// Notify implements Notifier.
func (m *Mailbox) Notify(ctx context.Context, msg Message) error {
	if m.latency > 0 {
		t := time.NewTimer(m.latency)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	m.sent.Put(msg)
	return nil
}

// Messages returns a copy of the retained messages (the last 1024
// delivered), oldest first.
func (m *Mailbox) Messages() []Message { return m.sent.Values() }

// Count returns the number of messages ever delivered, retained or not.
func (m *Mailbox) Count() int {
	_, n := m.sent.Len()
	return n
}

// Async wraps a Notifier with a bounded queue and a background worker,
// so policy evaluation is not blocked by delivery latency. Close flushes
// the queue and stops the worker.
type Async struct {
	inner Notifier
	queue chan Message
	done  chan struct{}

	mu      sync.Mutex
	dropped uint64
	closed  bool
}

// asyncDepth is the Async queue's capacity.
const asyncDepth = 256

// NewAsync returns an asynchronous notifier over a queue of asyncDepth
// messages.
func NewAsync(inner Notifier) *Async {
	a := &Async{
		inner: inner,
		queue: make(chan Message, asyncDepth),
		done:  make(chan struct{}),
	}
	go a.run()
	return a
}

func (a *Async) run() {
	defer close(a.done)
	for msg := range a.queue {
		// Delivery errors are swallowed by design: asynchronous
		// notification is best-effort and must not fail requests.
		_ = a.inner.Notify(context.Background(), msg)
	}
}

// Notify implements Notifier: it enqueues without blocking and drops
// the message if the queue is full or the notifier is closed.
func (a *Async) Notify(_ context.Context, m Message) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		a.dropped++
		return nil
	}
	select {
	case a.queue <- m:
	default:
		a.dropped++
	}
	return nil
}

// Dropped reports how many messages were lost to a full queue or to
// delivery after Close.
func (a *Async) Dropped() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// Close flushes queued messages and stops the worker. It is idempotent.
func (a *Async) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		<-a.done
		return
	}
	a.closed = true
	close(a.queue)
	a.mu.Unlock()
	<-a.done
}
