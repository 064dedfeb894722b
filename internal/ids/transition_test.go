package ids

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// TestEscalateNeverLowers: two raises racing from Low must leave High.
// A check-then-Set Escalate loses this when Escalate(Medium) reads Low,
// Escalate(High) completes, and the stale Set(Medium) lands last.
func TestEscalateNeverLowers(t *testing.T) {
	for round := 0; round < 20000; round++ {
		m := NewManager(Low)
		var wg sync.WaitGroup
		for _, l := range []Level{Medium, High} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Escalate(l)
			}()
		}
		wg.Wait()
		if got := m.Level(); got != High {
			t.Fatalf("round %d: level %s after racing Escalate(Medium) and Escalate(High), want high", round, got)
		}
	}
}

// TestStepDownLosesToConcurrentRaise: a Tick whose hold has lapsed
// races a raise to High, which renews the hold. Whichever runs first,
// the raise stands: a tick after it finds the hold renewed, and a tick
// before it steps Medium down to Low, which the raise then lifts. No
// interleaving drops two levels in one step.
func TestStepDownLosesToConcurrentRaise(t *testing.T) {
	start := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	lapsed := start.Add(holdPeriod)
	for round := 0; round < 5000; round++ {
		now := start
		m := NewManager(Low, WithManagerClock(func() time.Time { return now }))
		m.Escalate(Medium)
		now = lapsed // the raise below renews at the tick's instant
		var wg sync.WaitGroup
		begin := make(chan struct{})
		wg.Add(2)
		for _, write := range []func(){func() { m.Tick(lapsed) }, func() { m.Escalate(High) }} {
			go func() {
				defer wg.Done()
				<-begin
				write()
			}()
		}
		close(begin)
		wg.Wait()
		if got := m.Level(); got != High {
			t.Fatalf("round %d: level %s after a tick raced a raise to high, want high", round, got)
		}
		for _, tr := range m.History() {
			if tr.From-tr.To > 1 {
				t.Fatalf("round %d: history holds a two-step drop %s->%s", round, tr.From, tr.To)
			}
		}
		// The raise restarted the hold: a tick at the same instant is a no-op.
		m.Tick(lapsed)
		if got := m.Level(); got != High {
			t.Fatalf("round %d: a tick inside the renewed hold lowered high to %s", round, got)
		}
	}
}

// TestJournalAndListenersSeeHistoryOrder: under mixed concurrent
// writers the journal hook, a listener and History() must all hold the
// same chain, each From equal to the previous To. The two hooks append
// without a lock on purpose: writers are serialised across them, and
// the race detector says so if they stop being.
func TestJournalAndListenersSeeHistoryOrder(t *testing.T) {
	m := NewManager(Low)
	var journal, heard []Transition
	m.SetJournal(func(tr Transition) { journal = append(journal, tr) })
	m.OnChange(func(tr Transition) { heard = append(heard, tr) })

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l := Level((i+w)%3 + 1)
				switch (i + w) % 4 {
				case 0, 1:
					m.Escalate(l)
				case 2:
					m.Tick(time.Now().Add(holdPeriod))
				default:
					m.Set(l)
				}
			}
		}()
	}
	wg.Wait()

	if len(journal) == 0 || uint64(len(journal)) != m.Transitions() {
		t.Fatalf("journal holds %d transitions, the counter says %d", len(journal), m.Transitions())
	}
	prev := Low
	for i, tr := range journal {
		if tr.From != prev || tr.To == tr.From {
			t.Fatalf("journal[%d] = %s->%s after a transition to %s: not a chain", i, tr.From, tr.To, prev)
		}
		prev = tr.To
	}
	if prev != m.Level() {
		t.Errorf("journal ends at %s, the level is %s", prev, m.Level())
	}
	if !slices.Equal(heard, journal) {
		t.Fatalf("listener heard\n  %+v\nthe journal holds\n  %+v", heard, journal)
	}
	if hist := m.History(); !slices.Equal(hist, tail(journal)) {
		t.Fatalf("history holds\n  %+v\nwant the journal's last %d\n  %+v", hist, historyCap, tail(journal))
	}
}

// TestJournalHookMayReadManager: the state store compacts inside the
// appending call and its snapshot reads Level() and History(), so the
// hook (and a listener) must be able to read the manager they run under.
func TestJournalHookMayReadManager(t *testing.T) {
	m := NewManager(Low)
	var inHook, inListener Level
	var histLen int
	m.SetJournal(func(Transition) { inHook, histLen = m.Level(), len(m.History()) })
	m.OnChange(func(Transition) { inListener = m.Level() })

	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Set(High)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Set deadlocked on a journal hook that reads the manager")
	}
	if inHook != High || inListener != High || histLen != 1 {
		t.Errorf("hook read level %s with %d transitions, listener %s; want high, 1, high", inHook, histLen, inListener)
	}
}
