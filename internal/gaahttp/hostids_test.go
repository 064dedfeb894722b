package gaahttp

import (
	"testing"
	"time"

	"gaaapi/internal/ids"
)

// tunedLevels are the @max_input bounds the tests below tune by level.
var tunedLevels = map[ids.Level]map[string]string{
	ids.Low:  {"max_input": "1000"},
	ids.High: {"max_input": "100"},
}

func maxInput(t *testing.T, st *Stack) string {
	t.Helper()
	v, _ := st.Values.LookupValue("max_input")
	return v
}

// TestTunedValuesSetBeforeSetReturns: the tuner is a listener on the
// threat manager, so there is no window in which the level is high and
// @max_input still holds the low-threat bound.
func TestTunedValuesSetBeforeSetReturns(t *testing.T) {
	st, err := NewStack(StackConfig{LevelValues: tunedLevels})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := maxInput(t, st); got != "1000" {
		t.Fatalf("max_input = %q at start, want the low-threat 1000", got)
	}
	st.Threat.Set(ids.High)
	if got := maxInput(t, st); got != "100" {
		t.Fatalf("max_input = %q when Set(High) returned, want 100", got)
	}
	st.Threat.Set(ids.Low)
	if got := maxInput(t, st); got != "1000" {
		t.Fatalf("max_input = %q when Set(Low) returned, want 1000", got)
	}
}

// TestStackThreatTransitionsUseStackClock: the threat manager stamps its
// transitions with StackConfig.Clock like every other stateful
// component, so a simulated run journals simulated times.
func TestStackThreatTransitionsUseStackClock(t *testing.T) {
	at := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	st, err := NewStack(StackConfig{Clock: func() time.Time { return at }})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Threat.Set(ids.High)
	if h := st.Threat.History(); len(h) != 1 || !h[0].At.Equal(at) {
		t.Fatalf("history = %+v, want one transition stamped %v", h, at)
	}
}

// TestRestartAtHighThreatKeepsTunedValues: the state store restores the
// level before the tuner is registered, so the tuner must apply the
// level it finds — a server restarted under attack serves with the
// high-threat bound, not the one it was seeded with.
func TestRestartAtHighThreatKeepsTunedValues(t *testing.T) {
	cfg := StackConfig{
		StateDir:      t.TempDir(),
		RuntimeValues: map[string]string{"max_input": "1000"},
		LevelValues:   tunedLevels,
	}
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Threat.Set(ids.High)
	st.Close()

	st, err = NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Threat.Level(); got != ids.High {
		t.Fatalf("restored level = %s, want high", got)
	}
	if got := maxInput(t, st); got != "100" {
		t.Fatalf("max_input = %q after a restart at high, want 100", got)
	}
}

// hold is the threat manager's hold period: a level no detector renews
// for this long steps down one level on the next Stack.Tick.
const hold = 5 * time.Minute

// TestRestartAtHighThreatStepsDown: a level restored at high on a stack
// that runs a detector is held from the restore instant and then steps
// down like any other, with the lower level's values tuned in.
func TestRestartAtHighThreatStepsDown(t *testing.T) {
	clock := &simClock{now: time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)}
	cfg := StackConfig{
		StateDir:      t.TempDir(),
		RuntimeValues: map[string]string{"max_input": "1000"},
		LevelValues: map[ids.Level]map[string]string{
			ids.Low:    {"max_input": "1000"},
			ids.Medium: {"max_input": "300"},
			ids.High:   {"max_input": "100"},
		},
		Clock: clock.Now,
	}
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Threat.Set(ids.High)
	st.Close()

	clock.Advance(time.Hour) // the restart comes long after the raise
	st, err = NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	clock.Advance(hold - time.Second)
	st.Tick(clock.Now())
	if got := st.Threat.Level(); got != ids.High {
		t.Fatalf("level = %s inside the hold from the restore, want high", got)
	}
	clock.Advance(time.Second)
	st.Tick(clock.Now())
	if got := st.Threat.Level(); got != ids.Medium {
		t.Fatalf("level = %s one hold after the restore, want medium", got)
	}
	if got := maxInput(t, st); got != "300" {
		t.Fatalf("max_input = %q after the step down to medium, want 300", got)
	}
}

// TestTickWithoutDetectorKeepsLevel: on a stack that runs neither the
// correlator nor the scorer, nothing renews the level, and nothing but
// the operator lowers it.
func TestTickWithoutDetectorKeepsLevel(t *testing.T) {
	clock := &simClock{now: time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)}
	st, err := NewStack(StackConfig{Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Threat.Set(ids.High)
	clock.Advance(24 * time.Hour)
	st.Tick(clock.Now())
	if got := st.Threat.Level(); got != ids.High {
		t.Fatalf("level = %s a day later on a stack with no detector, want high", got)
	}
}
