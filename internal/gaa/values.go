package gaa

import (
	"strings"
	"sync"
)

// ValueProvider resolves runtime values referenced from condition
// values. The paper's section 2: "A condition may either explicitly
// list the value of a constraint or specify where the value can be
// obtained at run time. The latter allows for adaptive constraint
// specification, since allowable times, locations and thresholds can
// change in the event of possible security attacks. The value of
// condition can be supplied by other services, e.g., an IDS."
//
// A condition value token beginning with '@' is replaced by the
// provider's value for the name before the evaluator runs:
//
//	pre_cond_expr local input_length>@max_input
//	pre_cond_time_window local @business_hours
//
// An unresolvable reference leaves the condition unevaluated (MAYBE),
// exactly like a missing evaluator — fail-safe, never fail-open.
type ValueProvider interface {
	// LookupValue returns the current value for name.
	LookupValue(name string) (string, bool)
}

// Values is a mutable, concurrent-safe ValueProvider: the store an IDS
// (or an administrator) updates at run time to tighten or relax
// constraints without editing policy files.
type Values struct {
	mu sync.RWMutex
	m  map[string]string
}

var _ ValueProvider = (*Values)(nil)

// NewValues returns an empty store.
func NewValues() *Values {
	return &Values{m: make(map[string]string)}
}

// Set installs or updates a value.
func (v *Values) Set(name, value string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.m[name] = value
}

// Delete removes a value; conditions referencing it become
// unevaluated until it is set again.
func (v *Values) Delete(name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.m, name)
}

// LookupValue implements ValueProvider.
func (v *Values) LookupValue(name string) (string, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s, ok := v.m[name]
	return s, ok
}

// ResolveValue expands '@name' references in a condition value using
// the provider. Only whole whitespace-separated tokens are expanded
// ("@max" resolves; "limit@host" does not), and expansion applies to
// the suffix after a comparator too ("input_length>@max_input").
// It reports ok=false when a reference cannot be resolved.
func ResolveValue(value string, provider ValueProvider) (string, bool) {
	if !strings.Contains(value, "@") {
		return value, true
	}
	fields := strings.Fields(value)
	changed := false
	for i, f := range fields {
		expanded, ok := expandToken(f, provider)
		if !ok {
			return "", false
		}
		if expanded != f {
			fields[i] = expanded
			changed = true
		}
	}
	if !changed {
		return value, true
	}
	return strings.Join(fields, " "), true
}

// HasValueRef reports whether the condition value carries an '@name'
// reference, i.e. whether ResolveValue would consult the provider. Such
// a value has no shape until evaluation: the compiled engine keeps its
// condition dynamic and the static analyzer skips value validation.
func HasValueRef(value string) bool {
	if !strings.Contains(value, "@") {
		return false
	}
	for _, tok := range strings.Fields(value) {
		if _, _, ok := valueRef(tok); ok {
			return true
		}
	}
	return false
}

// valueRef is the reference syntax, defined once: a leading '@' makes
// the whole token a reference; an '@' immediately after one of the
// comparator characters (=<>!) makes the remainder one, keeping the
// prefix. Any other '@' ("alice@example.org") is literal text.
func valueRef(tok string) (prefix, name string, ok bool) {
	i := strings.IndexByte(tok, '@')
	if i == 0 || i > 0 && strings.IndexByte("=<>!", tok[i-1]) >= 0 {
		return tok[:i], tok[i+1:], true
	}
	return "", "", false
}

// expandToken expands a single token's reference, if it has one.
func expandToken(tok string, provider ValueProvider) (string, bool) {
	prefix, name, ok := valueRef(tok)
	if !ok {
		return tok, true
	}
	if provider == nil {
		return "", false
	}
	v, found := provider.LookupValue(name)
	return prefix + v, found
}
