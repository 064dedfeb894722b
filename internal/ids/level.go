// Package ids implements the intrusion-detection substrate the GAA-API
// interacts with (paper section 3): a system threat-level manager, an
// attack-signature database, the seven classes of GAA-to-IDS reports, an
// event bus that calls its listeners on the publishing request (paper
// section 9 future work), a correlator that adapts the threat level to observed events, and an
// anomaly detector built from per-principal behaviour profiles.
package ids

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is the system threat level supplied by the IDS (paper section
// 7.1): "low threat level means normal system operational state, medium
// threat level indicates suspicious behavior and high threat level
// means that the system is under attack".
type Level int

const (
	// Low is the normal operational state.
	Low Level = iota + 1
	// Medium indicates suspicious behaviour.
	Medium
	// High means the system is under attack.
	High
)

// String returns "low", "medium" or "high".
func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ParseLevel converts a symbolic threat level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "low":
		return Low, nil
	case "medium":
		return Medium, nil
	case "high":
		return High, nil
	default:
		return 0, fmt.Errorf("unknown threat level %q", s)
	}
}

// LevelProvider supplies the current threat level; condition evaluators
// depend on this narrow interface rather than the full Manager.
type LevelProvider interface {
	Level() Level
}

// Transition is one recorded threat-level change, the escalation
// history persistence restores across restarts.
type Transition struct {
	// From and To are the levels before and after the change.
	From Level `json:"from"`
	To   Level `json:"to"`
	// At is when the change happened.
	At time.Time `json:"at"`
}

// historyCap bounds the retained escalation history.
const historyCap = 64

// holdPeriod is how long a level above low is held after its last
// renewal before Tick steps it down one level (DESIGN.md §9, the hold).
const holdPeriod = 5 * time.Minute

// Manager holds the current system threat level; every change to it is
// one call of transition. Writers raise the level and renew its hold;
// it falls only by Tick. It is safe for concurrent use.
type Manager struct {
	clock func() time.Time

	// transitions counts every level change since process start —
	// monotonic, unlike the capped history (observability gauge feed).
	transitions atomic.Uint64
	// level is stored only by transition; a request reads it lock-free.
	level atomic.Int32

	// wmu serialises writers across the journal hook and the listeners,
	// so the WAL and every listener see transitions in the order they
	// happened. Neither may call a writer; both may read.
	wmu       sync.Mutex
	journal   func(Transition)
	listeners []func(Transition)
	// renewed is when the hold on the current level last began; wmu
	// guards it.
	renewed time.Time

	// mu guards history and is never held across a call out: a journal
	// append that compacts the store snapshots History from inside it.
	mu      sync.Mutex
	history []Transition
}

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithManagerClock overrides the time source used to stamp the
// escalation history (tests, persistence).
func WithManagerClock(now func() time.Time) ManagerOption {
	return func(m *Manager) { m.clock = now }
}

// NewManager returns a manager starting at the given level (use Low for
// normal operation).
func NewManager(initial Level, opts ...ManagerOption) *Manager {
	m := &Manager{clock: time.Now}
	m.level.Store(int32(initial))
	for _, o := range opts {
		o(m)
	}
	m.renewed = m.clock()
	return m
}

// Level implements LevelProvider.
func (m *Manager) Level() Level { return Level(m.level.Load()) }

// Transitions returns the number of level changes since the process
// started (restores included); unlike the capped History, monotonic.
func (m *Manager) Transitions() uint64 { return m.transitions.Load() }

// History returns the recorded level transitions, oldest first (bounded
// to the most recent changes).
func (m *Manager) History() []Transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Transition(nil), m.history...)
}

// SetJournal installs the persistence hook: it receives every local
// transition, not a Restore's or a Merge's.
func (m *Manager) SetJournal(fn func(Transition)) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.journal = fn
}

// OnChange registers fn to be called with every transition, journaled
// or not, synchronously and in the order they happened: when a writer
// returns, fn has run. fn must not change the level.
func (m *Manager) OnChange(fn func(Transition)) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.listeners = append(m.listeners, fn)
}

// origin is where a transition comes from, which decides how it is
// kept: a local one is recorded in the history and journaled; a merged
// one only recorded (its caller persists it, so the mirror never echoes
// it); a restored one neither (Restore puts its history back whole).
type origin uint8

const (
	local origin = iota
	merged
	restored
)

// transition is the one place the level changes. next is the writer's
// rule, from the current level to the one it asks for; a change starts
// a new hold and is recorded, counted, journaled and announced, in that
// order, before the next writer's rule runs. A zero at means now.
func (m *Manager) transition(next func(cur Level) Level, at time.Time, src origin) (Transition, bool) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.transitionLocked(next, at, src)
}

// transitionLocked is transition for a caller that holds wmu.
func (m *Manager) transitionLocked(next func(cur Level) Level, at time.Time, src origin) (Transition, bool) {
	cur := m.Level()
	to := next(cur)
	if to == cur {
		return Transition{}, false
	}
	if at.IsZero() {
		at = m.clock()
	}
	tr := Transition{From: cur, To: to, At: at}
	m.renewed = at
	m.mu.Lock()
	if src != restored {
		m.history = tail(append(m.history, tr))
	}
	m.level.Store(int32(to))
	m.mu.Unlock()
	m.transitions.Add(1)
	if src == local && m.journal != nil {
		m.journal(tr)
	}
	for _, fn := range m.listeners {
		fn(tr)
	}
	return tr, true
}

// tail bounds a history to its most recent historyCap transitions.
func tail(h []Transition) []Transition { return h[max(0, len(h)-historyCap):] }

// Set changes the threat level to l whatever it is now — the operator's
// rule. Setting the current level is a no-op.
func (m *Manager) Set(l Level) {
	m.transition(func(Level) Level { return l }, time.Time{}, local)
}

// Escalate raises the level to l if it is higher than the current one
// and reports whether a change occurred: of racing raises the highest
// stands and none undoes another.
func (m *Manager) Escalate(l Level) bool {
	_, ok := m.transition(func(cur Level) Level { return max(cur, l) }, time.Time{}, local)
	return ok
}

// Renew restarts the hold on the current level at at: a detector that
// still sees the threat it raised the level for calls it.
func (m *Manager) Renew(at time.Time) {
	m.wmu.Lock()
	m.renewed = at
	m.wmu.Unlock()
}

// Tick is the one rule that lowers the level: once the hold has lapsed
// at now, a level above low steps down one, and that step begins the
// next hold. A caller that owns the clock calls it (Stack.Tick).
func (m *Manager) Tick(now time.Time) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if now.Sub(m.renewed) >= holdPeriod {
		m.transitionLocked(func(cur Level) Level { return max(cur-1, Low) }, now, local)
	}
}

// Merge applies a threat transition replicated from another node with
// max-wins semantics: the level only rises (a peer under attack pulls
// the fleet up; de-escalation stays a local decision), and a raise that
// reaches the local level renews its hold from the raise's instant. The
// merged transition, From rewritten to the local level, is recorded and
// announced but NOT journaled. Reports it and whether the level changed.
func (m *Manager) Merge(tr Transition) (Transition, bool) {
	return m.transition(func(cur Level) Level {
		if tr.To > tr.From && tr.To == cur && tr.At.After(m.renewed) {
			m.renewed = tr.At
		}
		return max(cur, tr.To)
	}, tr.At, merged)
}

// Restore puts back a recovered level and history without journaling
// them; listeners still hear the change, and the level is held from the
// restore instant. Persistence replays through it.
func (m *Manager) Restore(level Level, history []Transition) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.mu.Lock()
	m.history = append(m.history[:0], tail(history)...)
	m.mu.Unlock()
	m.transitionLocked(func(Level) Level { return level }, time.Time{}, restored)
}
