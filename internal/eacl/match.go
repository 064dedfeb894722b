package eacl

import (
	"sort"
	"strings"
)

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
// byte-by-byte backtracking walk, and a list of them is one scan of the
// subject (GlobList). Glob stays the definition: FuzzGlobShapes
// (internal/conditions) holds every shape to it, FuzzGlobList every
// list.
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

// GlobList is a pattern list compiled for one question: does some
// member match? Below longSubject bytes its *lit* members are found in
// one scan: the first-byte table names, for each subject byte, the
// literals that start with it. A longer subject is the attacker's to
// size and to fill with a byte that starts literals ("%"), so there a
// list of at most searchedLits literals, and a list of one anywhere,
// runs one strings.Contains per literal, linear in the subject whatever
// it holds. Members of the other shapes match one by one.
type GlobList struct {
	any bool // a *""* member ("*", "**"): every subject matches
	// first[c] is 1 + the index in lits of the first literal starting
	// with byte c, 0 when none does; lits is grouped by first byte.
	first [256]uint16
	lits  []string
	rest  []CompiledGlob
}

// maxListLits is what the first-byte table can index; a longer list's
// further literals match one by one.
const maxListLits = 1<<16 - 1

// From longSubject bytes a list of up to searchedLits literals is
// searched literal by literal.
const longSubject, searchedLits = 128, 16

// CompileGlobList compiles patterns as one list.
func CompileGlobList(patterns []string) *GlobList {
	l := new(GlobList)
	for _, p := range patterns {
		switch g := CompileGlob(p); {
		case g.shape != globContains || len(l.lits) == maxListLits:
			l.rest = append(l.rest, g)
		case g.lit == "":
			l.any = true
		default:
			l.lits = append(l.lits, g.lit)
		}
	}
	sort.SliceStable(l.lits, func(i, j int) bool { return l.lits[i][0] < l.lits[j][0] })
	for i := len(l.lits) - 1; i >= 0; i-- {
		l.first[l.lits[i][0]] = uint16(i + 1)
	}
	return l
}

// Match reports whether Glob(p, s) holds for some member p.
func (l *GlobList) Match(s string) bool {
	if l.any {
		return true
	}
	if len(l.lits) <= searchedLits && (len(s) >= longSubject || len(l.lits) == 1) {
		for _, lit := range l.lits {
			if strings.Contains(s, lit) {
				return true
			}
		}
	} else if len(l.lits) > 0 {
		for i := 0; i < len(s); i++ {
			j := int(l.first[s[i]])
			if j == 0 {
				continue
			}
			for j--; j < len(l.lits) && l.lits[j][0] == s[i]; j++ {
				if strings.HasPrefix(s[i:], l.lits[j]) {
					return true
				}
			}
		}
	}
	for _, g := range l.rest {
		if g.Match(s) {
			return true
		}
	}
	return false
}
