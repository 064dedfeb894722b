package conditions

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"gaaapi/internal/eacl"
	"gaaapi/internal/gaa"
)

// Counters is a sliding-window event counter shared between the
// threshold condition and the count action (package actions): actions
// record events ("failed login"), the condition checks "the number of
// failed login attempts within a given period of time" (paper
// section 3, item 4).
type Counters struct {
	clock func() time.Time

	mu      sync.Mutex
	events  map[string][]time.Time
	journal func(CounterEvent)
}

// CounterEvent describes one counter mutation for persistence: an
// event recorded at At, or a reset wiping the key.
type CounterEvent struct {
	// Key is the counter identity (CounterKey form).
	Key string `json:"key"`
	// At is the event timestamp (meaningless for resets).
	At time.Time `json:"at,omitempty"`
	// Reset marks a key wipe instead of an event.
	Reset bool `json:"reset,omitempty"`
}

// NewCounters returns an empty counter store; now defaults to time.Now.
func NewCounters(now func() time.Time) *Counters {
	if now == nil {
		now = time.Now
	}
	return &Counters{clock: now, events: make(map[string][]time.Time)}
}

// SetJournal installs a hook receiving every mutation, for
// persistence. RestoreEvent calls are not journaled.
func (c *Counters) SetJournal(fn func(CounterEvent)) {
	c.mu.Lock()
	c.journal = fn
	c.mu.Unlock()
}

// Add records one event for key.
func (c *Counters) Add(key string) {
	now := c.clock()
	c.mu.Lock()
	c.events[key] = append(c.events[key], now)
	journal := c.journal
	c.mu.Unlock()
	if journal != nil {
		journal(CounterEvent{Key: key, At: now})
	}
}

// RestoreEvent replays a persisted event with its original timestamp,
// keeping the per-key series time-ordered so window pruning stays
// correct. Events older than the restore clock's horizon expire
// naturally on the next CountSince.
func (c *Counters) RestoreEvent(key string, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.events[key]
	i := len(ts)
	for i > 0 && at.Before(ts[i-1]) {
		i--
	}
	ts = append(ts, time.Time{})
	copy(ts[i+1:], ts[i:])
	ts[i] = at
	c.events[key] = ts
}

// Dump returns a copy of every live event series, for snapshots.
func (c *Counters) Dump() map[string][]time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]time.Time, len(c.events))
	for k, ts := range c.events {
		cp := make([]time.Time, len(ts))
		copy(cp, ts)
		out[k] = cp
	}
	return out
}

// CountSince returns the number of events for key within the window,
// pruning older events.
func (c *Counters) CountSince(key string, window time.Duration) int {
	cutoff := c.clock().Add(-window)
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.events[key]
	i := 0
	for i < len(ts) && ts[i].Before(cutoff) {
		i++
	}
	if i > 0 {
		ts = append(ts[:0], ts[i:]...)
		if len(ts) == 0 {
			delete(c.events, key)
		} else {
			c.events[key] = ts
		}
	}
	return len(ts)
}

// Reset forgets all events for key.
func (c *Counters) Reset(key string) {
	c.mu.Lock()
	delete(c.events, key)
	journal := c.journal
	c.mu.Unlock()
	if journal != nil {
		journal(CounterEvent{Key: key, Reset: true})
	}
}

// thresholdEvaluator implements pre_cond_threshold with a value like
//
//	counter=failed_login key=client_ip max=5 window=60s
//
// It evaluates YES when the event count for (counter, key-parameter
// value) within the window reaches max — so a neg entry carrying it
// fires once the threshold is exceeded. It is a selector.
type thresholdEvaluator struct {
	counters *Counters
}

// thresholdTest is a parsed threshold spec. It is not hoisted: the
// count is shared mutable state that CountSince prunes as it reads.
type thresholdTest struct {
	counter, keyParam string
	max               int
	window            time.Duration
}

// parseThreshold reads "counter=<name> key=<param> max=<n>
// window=<duration>" with a positive count and a positive window.
func parseThreshold(value string) (thresholdTest, error) {
	kv, err := parseKV(value)
	if err != nil {
		return thresholdTest{}, err
	}
	t := thresholdTest{counter: kv["counter"], keyParam: kv["key"]}
	if t.counter == "" || t.keyParam == "" {
		return t, fmt.Errorf("threshold needs counter= and key=: %q", value)
	}
	if t.max, err = strconv.Atoi(kv["max"]); err != nil || t.max <= 0 {
		return t, fmt.Errorf("bad max %q (want a positive integer)", kv["max"])
	}
	if t.window, err = time.ParseDuration(kv["window"]); err != nil || t.window <= 0 {
		return t, fmt.Errorf("bad window %q (want a positive duration)", kv["window"])
	}
	return t, nil
}

// atoms reads no request axis: the count is the counter store's.
func (thresholdEvaluator) atoms(value string) (Atoms, error) {
	_, err := parseThreshold(value)
	return Atoms{}, err
}

func (e thresholdEvaluator) Evaluate(_ context.Context, cond eacl.Condition, req *gaa.Request) gaa.Outcome {
	t, err := parseThreshold(cond.Value)
	if err != nil {
		return malformed(err)
	}
	if e.counters == nil {
		return gaa.UnevaluatedOutcome("no counter store configured")
	}
	keyValue, ok := req.Params.Get(t.keyParam, cond.DefAuth)
	if !ok || keyValue == "" {
		return gaa.UnevaluatedOutcome("no key parameter " + t.keyParam)
	}
	n := e.counters.CountSince(CounterKey(t.counter, keyValue), t.window)
	if n >= t.max {
		return gaa.MetOutcome(gaa.ClassSelector,
			fmt.Sprintf("%s[%s]=%d reached max %d", t.counter, keyValue, n, t.max))
	}
	return gaa.FailedOutcome(gaa.ClassSelector,
		fmt.Sprintf("%s[%s]=%d below max %d", t.counter, keyValue, n, t.max))
}

// CounterKey builds the canonical counter identity for a (counter
// name, key value) pair; the count action uses the same scheme.
func CounterKey(counter, keyValue string) string {
	return counter + ":" + keyValue
}
