package notify

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestMailboxDelivers(t *testing.T) {
	m := NewMailbox(0)
	err := m.Notify(context.Background(), Message{To: "sysadmin", Subject: "alert", Tag: "cgiexploit"})
	if err != nil {
		t.Fatalf("Notify: %v", err)
	}
	msgs := m.Messages()
	if len(msgs) != 1 || msgs[0].To != "sysadmin" || msgs[0].Tag != "cgiexploit" {
		t.Errorf("Messages = %+v", msgs)
	}
	if m.Count() != 1 {
		t.Errorf("Count = %d, want 1", m.Count())
	}
}

// TestMailboxKeepsTheLastMessages: every attack from a fresh source is
// an alert, so the mailbox keeps the last 1024 of them, oldest first,
// while Count stays the cumulative total /gaa/status reports.
func TestMailboxKeepsTheLastMessages(t *testing.T) {
	m := NewMailbox(0)
	const keep, sent = 1024, 1024 + 100
	for i := 0; i < sent; i++ {
		if err := m.Notify(context.Background(), Message{Body: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	msgs := m.Messages()
	if m.Count() != sent || len(msgs) != keep {
		t.Fatalf("Count = %d, len(Messages()) = %d; want %d, %d", m.Count(), len(msgs), sent, keep)
	}
	if msgs[0].Body != "100" || msgs[len(msgs)-1].Body != strconv.Itoa(sent-1) {
		t.Errorf("retained %s..%s, want 100..%d", msgs[0].Body, msgs[len(msgs)-1].Body, sent-1)
	}
}

func TestMailboxLatency(t *testing.T) {
	m := NewMailbox(30 * time.Millisecond)
	start := time.Now()
	if err := m.Notify(context.Background(), Message{}); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("Notify returned after %v, want >= ~30ms latency", elapsed)
	}
}

func TestMailboxContextCancel(t *testing.T) {
	m := NewMailbox(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Notify(ctx, Message{}); err == nil {
		t.Error("want context error on cancelled delivery")
	}
	if m.Count() != 0 {
		t.Error("cancelled delivery must not record the message")
	}
}

func TestMailboxConcurrent(t *testing.T) {
	m := NewMailbox(0)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = m.Notify(context.Background(), Message{})
		}()
	}
	wg.Wait()
	if m.Count() != 20 {
		t.Errorf("Count = %d, want 20", m.Count())
	}
}

func TestAsyncDeliversInBackground(t *testing.T) {
	inner := NewMailbox(0)
	a := NewAsync(inner)
	for i := 0; i < 5; i++ {
		if err := a.Notify(context.Background(), Message{Tag: "t"}); err != nil {
			t.Fatalf("Notify: %v", err)
		}
	}
	a.Close()
	if inner.Count() != 5 {
		t.Errorf("delivered = %d, want 5 after Close flush", inner.Count())
	}
	if a.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", a.Dropped())
	}
}

func TestAsyncDoesNotBlockCaller(t *testing.T) {
	inner := NewMailbox(50 * time.Millisecond)
	a := NewAsync(inner)
	defer a.Close()
	start := time.Now()
	if err := a.Notify(context.Background(), Message{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Errorf("async Notify blocked for %v", elapsed)
	}
}

func TestAsyncDropsWhenFull(t *testing.T) {
	// An inner notifier that blocks until released.
	release := make(chan struct{})
	blocking := notifierFunc(func(context.Context, Message) error {
		<-release
		return nil
	})
	a := NewAsync(blocking)
	// The first message occupies the worker and the next asyncDepth fill
	// the queue; the rest are dropped.
	for i := 0; i < asyncDepth+5; i++ {
		_ = a.Notify(context.Background(), Message{})
	}
	if a.Dropped() == 0 {
		t.Error("expected drops with a saturated queue")
	}
	close(release)
	a.Close()
}

func TestAsyncCloseIdempotentAndDropsAfterClose(t *testing.T) {
	inner := NewMailbox(0)
	a := NewAsync(inner)
	a.Close()
	a.Close()
	if err := a.Notify(context.Background(), Message{}); err != nil {
		t.Fatalf("Notify after Close: %v", err)
	}
	if a.Dropped() != 1 {
		t.Errorf("Dropped after close = %d, want 1", a.Dropped())
	}
}

type notifierFunc func(context.Context, Message) error

func (f notifierFunc) Notify(ctx context.Context, m Message) error { return f(ctx, m) }
