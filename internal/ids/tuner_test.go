package ids

import (
	"sync"
	"testing"
	"time"
)

// mapSink collects Set calls.
type mapSink struct {
	mu sync.Mutex
	m  map[string]string
}

func newMapSink() *mapSink { return &mapSink{m: make(map[string]string)} }

func (s *mapSink) Set(name, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[name] = value
}

func (s *mapSink) get(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

func TestValueTunerApply(t *testing.T) {
	sink := newMapSink()
	tuner := NewValueTuner(sink)
	tuner.SetLevelValues(Low, map[string]string{"max_input": "1000", "window": "00:00-24:00"})
	tuner.SetLevelValues(High, map[string]string{"max_input": "200"})

	tuner.Apply(Low)
	if sink.get("max_input") != "1000" {
		t.Errorf("low max_input = %q", sink.get("max_input"))
	}
	tuner.Apply(High)
	if sink.get("max_input") != "200" {
		t.Errorf("high max_input = %q", sink.get("max_input"))
	}
	// Values not mentioned at the new level keep their last setting.
	if sink.get("window") != "00:00-24:00" {
		t.Errorf("window = %q, want untouched", sink.get("window"))
	}
	// Applying an unconfigured level is a no-op.
	tuner.Apply(Medium)
	if sink.get("max_input") != "200" {
		t.Error("unconfigured level changed values")
	}
}

func TestValueTunerCopiesInput(t *testing.T) {
	sink := newMapSink()
	tuner := NewValueTuner(sink)
	values := map[string]string{"k": "1"}
	tuner.SetLevelValues(Low, values)
	values["k"] = "mutated"
	tuner.Apply(Low)
	if sink.get("k") != "1" {
		t.Error("tuner shares storage with caller")
	}
}

func TestValueTunerRunFollowsManager(t *testing.T) {
	sink := newMapSink()
	tuner := NewValueTuner(sink)
	tuner.SetLevelValues(Medium, map[string]string{"max_input": "500"})
	tuner.SetLevelValues(High, map[string]string{"max_input": "100"})

	mgr := NewManager(Low)
	mgr.OnChange(func(tr Transition) { tuner.Apply(tr.To) })

	// The tuner is a listener: the values are in place when the writer
	// returns, whichever writer it is.
	mgr.Set(Medium)
	if got := sink.get("max_input"); got != "500" {
		t.Fatalf("max_input = %q when Set(Medium) returned, want 500", got)
	}
	mgr.Escalate(High)
	if got := sink.get("max_input"); got != "100" {
		t.Fatalf("max_input = %q when Escalate(High) returned, want 100", got)
	}
	mgr.Tick(time.Now().Add(holdPeriod))
	if got := sink.get("max_input"); got != "500" {
		t.Fatalf("max_input = %q when Tick stepped down from high, want 500", got)
	}
}
