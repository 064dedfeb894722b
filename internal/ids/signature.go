package ids

import (
	"sync"

	"gaaapi/internal/eacl"
)

// Signature is one attack signature: glob patterns over the request
// line ("New signatures can be specified using regular expressions",
// paper section 7.2 — the paper's own examples are '*'-glob patterns).
type Signature struct {
	// Name identifies the signature ("phf", "nimda").
	Name string
	// Patterns are '*'-glob patterns; any match triggers the signature.
	Patterns []string
	// Severity of the detected attack.
	Severity Severity
	// Kind is a short threat-type label reported to the IDS
	// ("cgi-exploit", "dos", "malformed-url").
	Kind string
	// Recommendation is the defensive recommendation attached to
	// reports.
	Recommendation string
}

// DB is a concurrent-safe signature database.
type DB struct {
	mu   sync.RWMutex
	sigs []Signature
	// lists[i] is sigs[i].Patterns compiled at Add, and all is every
	// pattern as one list: a line no signature matches is read once,
	// with the kernel pre_cond_regex runs.
	lists []*eacl.GlobList
	all   *eacl.GlobList
}

// NewDB returns a database preloaded with the given signatures.
func NewDB(sigs ...Signature) *DB {
	db := &DB{}
	db.Add(sigs...)
	return db
}

// Add appends signatures.
func (db *DB) Add(sigs ...Signature) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.sigs = append(db.sigs, sigs...)
	var all []string
	for _, sig := range db.sigs {
		all = append(all, sig.Patterns...)
	}
	for _, sig := range sigs {
		db.lists = append(db.lists, eacl.CompileGlobList(sig.Patterns))
	}
	db.all = eacl.CompileGlobList(all)
}

// Match returns every signature matching s, in registration order.
func (db *DB) Match(s string) []Signature {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if !db.all.Match(s) {
		return nil
	}
	var out []Signature
	for i := range db.sigs {
		if db.lists[i].Match(s) {
			out = append(out, db.sigs[i])
		}
	}
	return out
}

// First returns the first signature, in registration order, that
// matches s and is named name ("" names any), without building Match's
// slice.
func (db *DB) First(s, name string) (Signature, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if !db.all.Match(s) {
		return Signature{}, false
	}
	for i := range db.sigs {
		if (name == "" || db.sigs[i].Name == name) && db.lists[i].Match(s) {
			return db.sigs[i], true
		}
	}
	return Signature{}, false
}

// DefaultSignatures returns the attack signatures discussed in the
// paper (section 7.2): vulnerable-CGI probes (phf, test-cgi), the
// slash-flood Apache DoS, and NIMDA-style malformed URLs containing
// escaped sequences.
func DefaultSignatures() []Signature {
	return []Signature{
		{
			Name:           "phf",
			Patterns:       []string{"*phf*"},
			Severity:       SevHigh,
			Kind:           "cgi-exploit",
			Recommendation: "blacklist source address",
		},
		{
			Name:           "test-cgi",
			Patterns:       []string{"*test-cgi*"},
			Severity:       SevHigh,
			Kind:           "cgi-exploit",
			Recommendation: "blacklist source address",
		},
		{
			Name:           "slash-flood",
			Patterns:       []string{"*///////////////////*"},
			Severity:       SevMedium,
			Kind:           "dos",
			Recommendation: "drop connection",
		},
		{
			Name: "nimda",
			// NIMDA exploits IIS via malformed GET requests with
			// escaped directory traversals.
			Patterns:       []string{"*%c0%af*", "*%255c*", "*cmd.exe*", "*root.exe*"},
			Severity:       SevHigh,
			Kind:           "malformed-url",
			Recommendation: "blacklist source address",
		},
	}
}
