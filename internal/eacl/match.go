package eacl

import "strings"

// MatchRight reports whether the entry right covers the requested right:
// both the defining authority and the value must glob-match. The
// requested right's sign is ignored — a neg_access_right entry for
// "apache GET /x" matches a request for that same right and denies it.
func MatchRight(entry, requested Right) bool {
	return Glob(entry.DefAuth, requested.DefAuth) && Glob(entry.Value, requested.Value)
}

// Glob reports whether s matches pattern, where '*' in pattern matches
// any (possibly empty) run of characters and every other byte matches
// itself. This is the wildcard language used throughout the paper's
// policies ("*", "*phf*", "GET /cgi-bin/*").
func Glob(pattern, s string) bool {
	// Iterative matcher with single-star backtracking: O(len(p)*len(s))
	// worst case, no allocation.
	var (
		pi, si         int
		starPi, starSi = -1, 0
	)
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '*':
			starPi, starSi = pi, si
			pi++
		case pi < len(pattern) && pattern[pi] == s[si]:
			pi++
			si++
		case starPi >= 0:
			// Backtrack: let the last '*' consume one more byte.
			starSi++
			pi, si = starPi+1, starSi
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

// globShape is what a glob pattern was recognized as at compile time.
// The paper's signature lists ("*phf* *test-cgi*") are substring
// searches written as globs; matching them as such skips Glob's
// byte-by-byte backtracking walk. Glob stays the definition:
// FuzzGlobShapes (internal/conditions) holds every shape to it.
type globShape uint8

const (
	globGeneral  globShape = iota // Glob(lit, s)
	globExact                     // no star
	globPrefix                    // lit*
	globSuffix                    // *lit
	globContains                  // *lit*
)

// CompiledGlob is a pattern classified once, for callers that match the
// same pattern against many subjects.
type CompiledGlob struct {
	shape globShape
	lit   string // the literal part; the whole pattern for globGeneral
}

// CompileGlob classifies pattern; a run of '*' at either end reads as
// one star, and all stars as *""*.
func CompileGlob(pattern string) CompiledGlob {
	lit := strings.Trim(pattern, "*")
	lead, trail := strings.HasPrefix(pattern, "*"), strings.HasSuffix(pattern, "*")
	switch {
	case strings.Contains(lit, "*"):
		return CompiledGlob{globGeneral, pattern}
	case lead && trail:
		return CompiledGlob{globContains, lit}
	case lead:
		return CompiledGlob{globSuffix, lit}
	case trail:
		return CompiledGlob{globPrefix, lit}
	default:
		return CompiledGlob{globExact, lit}
	}
}

// Match reports what Glob(pattern, s) reports.
func (g CompiledGlob) Match(s string) bool {
	switch g.shape {
	case globExact:
		return s == g.lit
	case globPrefix:
		return strings.HasPrefix(s, g.lit)
	case globSuffix:
		return strings.HasSuffix(s, g.lit)
	case globContains:
		return strings.Contains(s, g.lit)
	default:
		return Glob(g.lit, s)
	}
}
