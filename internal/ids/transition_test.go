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

// TestStepDownLosesToConcurrentRaise, correlator half: the decayer judges
// the quiet period at Medium, another writer raises High before it acts
// (the clock read between the two is where the test gets in), and the
// step down from Medium must then do nothing — not write Low over High.
func TestStepDownLosesToConcurrentRaise(t *testing.T) {
	now := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	m := NewManager(Low)
	var onClock func()
	c := NewCorrelator(m, CorrelatorConfig{MediumAfter: 1, HighAfter: 10, Decay: time.Minute,
		Clock: func() time.Time {
			if onClock != nil {
				onClock()
			}
			return now
		}})
	if got := c.Observe(Report{Kind: DetectedAttack, Severity: SevMedium}); got != Medium {
		t.Fatalf("level after one attack report = %s, want medium", got)
	}

	now = now.Add(2 * time.Minute) // quiet long enough to decay
	onClock = func() { onClock = nil; m.Escalate(High) }
	if got := c.Observe(Report{Kind: LegitimatePattern}); got != High {
		t.Fatalf("decay from medium overwrote a racing raise: level %s, want high", got)
	}
	for _, tr := range m.History() {
		if tr.From-tr.To > 1 {
			t.Fatalf("history holds a two-step drop %s->%s", tr.From, tr.To)
		}
	}
	// The refused step did not restart the quiet period: the next
	// decay steps down from High, one level.
	if got := c.Observe(Report{Kind: LegitimatePattern}); got != Medium {
		t.Fatalf("level after the next decay = %s, want medium", got)
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
					m.StepDown(l)
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
