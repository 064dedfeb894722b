package ids

import (
	"sync"
	"testing"
	"time"
)

func TestParseLevel(t *testing.T) {
	tests := []struct {
		in      string
		want    Level
		wantErr bool
	}{
		{"low", Low, false},
		{"MEDIUM", Medium, false},
		{"High", High, false},
		{"critical", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseLevel(tt.in)
		if (err != nil) != tt.wantErr || got != tt.want {
			t.Errorf("ParseLevel(%q) = %v, %v", tt.in, got, err)
		}
	}
}

func TestLevelString(t *testing.T) {
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Error("Level.String mismatch")
	}
	if Level(7).String() != "Level(7)" {
		t.Error("unknown Level.String mismatch")
	}
}

func TestLevelOrdering(t *testing.T) {
	if !(Low < Medium && Medium < High) {
		t.Error("levels must be ordered low < medium < high")
	}
}

func TestManagerSetAndEscalate(t *testing.T) {
	m := NewManager(Low)
	if m.Level() != Low {
		t.Fatalf("initial level = %v", m.Level())
	}
	if !m.Escalate(Medium) {
		t.Error("Escalate(Medium) from Low should change")
	}
	if m.Escalate(Low) {
		t.Error("Escalate(Low) from Medium must not lower")
	}
	if m.Level() != Medium {
		t.Errorf("level = %v, want medium", m.Level())
	}
	m.Set(Low)
	if m.Level() != Low {
		t.Errorf("Set(Low): level = %v", m.Level())
	}
}

// record registers a listener on m and returns the slice it appends to.
func record(m *Manager) *[]Transition {
	var got []Transition
	m.OnChange(func(tr Transition) { got = append(got, tr) })
	return &got
}

func TestManagerSubscription(t *testing.T) {
	m := NewManager(Low)
	got := record(m)

	m.Set(High)
	if len(*got) != 1 || (*got)[0].From != Low || (*got)[0].To != High {
		t.Fatalf("listener saw %+v when Set(High) returned, want low->high", *got)
	}

	// Every change is delivered, in order: nothing is skipped.
	m.Set(Low)
	m.Set(Medium)
	if len(*got) != 3 || (*got)[1].To != Low || (*got)[2].To != Medium {
		t.Errorf("listener saw %+v, want high, low, medium in order", *got)
	}
}

func TestManagerSetSameLevelNoNotify(t *testing.T) {
	m := NewManager(Medium)
	got := record(m)
	m.Set(Medium)
	m.Escalate(Low)
	m.Tick(time.Now())
	if len(*got) != 0 || m.Transitions() != 0 {
		t.Errorf("notified %+v (%d transitions) for writes that changed nothing", *got, m.Transitions())
	}
}

func TestManagerConcurrency(t *testing.T) {
	m := NewManager(Low)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Escalate(Level(i%3 + 1))
			_ = m.Level()
		}(i)
	}
	wg.Wait()
	if l := m.Level(); l < Low || l > High {
		t.Errorf("level out of range after concurrent use: %v", l)
	}
}

func TestManagerHistoryAndRestore(t *testing.T) {
	at := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	m := NewManager(Low, WithManagerClock(func() time.Time { return at }))
	m.Set(Medium)
	m.Set(High)
	h := m.History()
	if len(h) != 2 || h[0].From != Low || h[0].To != Medium || h[1].To != High {
		t.Fatalf("history = %+v", h)
	}
	if !h[0].At.Equal(at) {
		t.Fatalf("transition stamped %v, want %v", h[0].At, at)
	}

	// Restore must set level + history without journaling, and still
	// notify listeners.
	var journaled []Transition
	m2 := NewManager(Low)
	m2.SetJournal(func(tr Transition) { journaled = append(journaled, tr) })
	seen := record(m2)
	m2.Restore(High, h)
	if m2.Level() != High {
		t.Fatalf("restored level = %v, want High", m2.Level())
	}
	if got := m2.History(); len(got) != 2 {
		t.Fatalf("restored history = %+v", got)
	}
	if len(journaled) != 0 {
		t.Fatalf("Restore was journaled: %+v (would loop replay back into the WAL)", journaled)
	}
	if len(*seen) != 1 || (*seen)[0].To != High {
		t.Fatalf("listener saw %+v, want the restored High", *seen)
	}
	// A journaled Set after restore extends the restored history.
	m2.Set(Low)
	if len(journaled) != 1 || journaled[0].From != High || journaled[0].To != Low {
		t.Fatalf("post-restore Set journaled %+v", journaled)
	}
}

func TestHistoryCapBounded(t *testing.T) {
	m := NewManager(Low)
	levels := []Level{Medium, High, Low}
	for i := 0; i < historyCap*2; i++ {
		m.Set(levels[i%len(levels)])
	}
	if got := len(m.History()); got != historyCap {
		t.Fatalf("history grew to %d, want cap %d", got, historyCap)
	}
}

func TestMergeIsMaxWins(t *testing.T) {
	m := NewManager(Medium)
	var journaled int
	m.SetJournal(func(Transition) { journaled++ })

	// A lower or equal remote level never de-escalates.
	if _, ok := m.Merge(Transition{From: High, To: Low}); ok {
		t.Fatal("merge de-escalated")
	}
	if _, ok := m.Merge(Transition{From: Low, To: Medium}); ok {
		t.Fatal("merge of equal level reported change")
	}
	if m.Level() != Medium {
		t.Fatalf("level = %v after no-op merges", m.Level())
	}

	// A higher remote level pulls the local level up; the recorded
	// transition's From is rewritten to the local level.
	tr, ok := m.Merge(Transition{From: Low, To: High})
	if !ok || tr.From != Medium || tr.To != High {
		t.Fatalf("merge = %+v, %v", tr, ok)
	}
	if m.Level() != High {
		t.Fatalf("level = %v after merge", m.Level())
	}
	hist := m.History()
	if len(hist) == 0 || hist[len(hist)-1].To != High {
		t.Fatalf("merge not recorded in history: %v", hist)
	}
	if journaled != 0 {
		t.Fatalf("Merge invoked the journal %d times; replication would loop", journaled)
	}
}

func TestMergeNotifiesSubscribers(t *testing.T) {
	m := NewManager(Low)
	got := record(m)
	at := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	if _, ok := m.Merge(Transition{To: High, At: at}); !ok {
		t.Fatal("merge failed")
	}
	if len(*got) != 1 || (*got)[0] != (Transition{From: Low, To: High, At: at}) {
		t.Fatalf("listener saw %+v, want the merged low->high stamped by the peer", *got)
	}
}

// TestMergedRaiseRenewsHold: a replicated raise that reaches the local
// level renews its hold from the raise's instant; a replicated step
// down renews nothing.
func TestMergedRaiseRenewsHold(t *testing.T) {
	t0 := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	m := NewManager(Low, WithManagerClock(func() time.Time { return t0 }))
	m.Escalate(High)
	m.Merge(Transition{From: Medium, To: High, At: t0.Add(3 * time.Minute)})
	m.Merge(Transition{From: High, To: Medium, At: t0.Add(4 * time.Minute)})
	m.Tick(t0.Add(holdPeriod))
	if got := m.Level(); got != High {
		t.Fatalf("level = %s one hold after the local raise, want high: the merged raise renews it", got)
	}
	m.Tick(t0.Add(3*time.Minute + holdPeriod))
	if got := m.Level(); got != Medium {
		t.Fatalf("level = %s one hold after the merged raise, want medium", got)
	}
}
