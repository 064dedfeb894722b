package ids

import (
	"maps"
	"sort"
	"sync"
)

// ValueSink receives runtime constraint values; gaa.Values implements
// it. The tuner writes through this narrow interface so package ids
// stays independent of the policy engine.
type ValueSink interface {
	Set(name, value string)
}

// ValueTuner adjusts runtime constraint values as the system threat
// level changes — the paper's section 3: "The API can request
// information for adjusting policies, such as values for thresholds,
// times and locations. The values may depend on many factors and can
// be determined by a host-based IDS and communicated to the GAA-API."
//
// Each threat level maps to a set of (name, value) pairs pushed into
// the sink whenever that level becomes current.
type ValueTuner struct {
	sink   ValueSink
	mu     sync.Mutex
	levels map[Level]map[string]string
}

// NewValueTuner builds a tuner writing to sink.
func NewValueTuner(sink ValueSink) *ValueTuner {
	return &ValueTuner{sink: sink, levels: make(map[Level]map[string]string)}
}

// SetLevelValues declares the constraint values for a threat level.
func (t *ValueTuner) SetLevelValues(level Level, values map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.levels[level] = maps.Clone(values)
}

// Apply pushes the values for level into the sink in name order (for
// reproducible traces); a Manager.OnChange listener calls it.
func (t *ValueTuner) Apply(level Level) {
	t.mu.Lock()
	values := t.levels[level] // replaced whole by SetLevelValues, never mutated
	t.mu.Unlock()
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.sink.Set(name, values[name])
	}
}
