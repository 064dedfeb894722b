package reason

import (
	"strings"

	"gaaapi/internal/eacl"
)

// Witness synthesis for the '*'-glob language of eacl.Glob: '*' is the
// only metacharacter, every other byte (including '?') matches itself.
// A pattern's plain witness is the pattern with its stars removed —
// always matched, and built from the policy's own glob alphabet, which
// is what keeps the abstract domain grounded in the policy text. Its
// open witness puts one fresh byte where each star was.

// globWitness returns a string matched by pattern: the literal bytes
// with every '*' deleted. The result may be empty ("", for "*" or "").
func globWitness(pattern string) string {
	return strings.ReplaceAll(pattern, "*", "")
}

// openWitness returns pattern with every '*' replaced by fresh, a byte
// no pattern contains. A pattern matching it must absorb each fresh
// byte into one of its own stars, and so matches the string with any
// run in place of that byte: only patterns covering this one match the
// open witness (the argument behind eacl.GlobCovers). The plain witness
// lacks that property — "GET /a" is the plain witness of both "GET /a"
// and "GET /a*".
func openWitness(pattern string, fresh byte) string {
	return strings.ReplaceAll(pattern, "*", string(fresh))
}

// globWitnesses returns every pattern's plain witness and, where
// another pattern matches that witness too, its open witness: each
// pattern keeps a candidate that the patterns not covering it miss.
// Axes with a hard cap (users, hosts, request lines) add open witnesses
// only where they tell patterns apart.
func globWitnesses(patterns []string, fresh byte) []string {
	var out []string
	for _, p := range patterns {
		w := globWitness(p)
		out = append(out, w)
		for _, q := range patterns {
			if q != p && eacl.Glob(q, w) {
				out = append(out, openWitness(p, fresh))
				break
			}
		}
	}
	return out
}

// freshByte returns a byte none of the patterns contains, preferring
// printable ones so witnesses stay readable.
func freshByte(patterns []string) byte {
	all := strings.Join(patterns, "")
	c := byte('~')
	for c > 0 && strings.IndexByte(all, c) >= 0 {
		c--
	}
	return c
}

// globIntersectWitness returns a shortest string matched by both
// patterns, or ("", false) when their languages are disjoint. It runs a
// BFS over the product of the two patterns' glob automata: state (i, j)
// means "a[i:] and b[j:] must both match the remaining input". Epsilon
// moves skip a star; consuming moves either advance matching literals
// or feed one pattern's literal into the other's star.
func globIntersectWitness(a, b string) (string, bool) {
	n, m := len(a), len(b)
	type state struct{ i, j int }
	// parent reconstruction: prev state plus the byte consumed entering
	// this state (-1 for epsilon).
	type via struct {
		prev state
		c    int
	}
	seen := map[state]via{{0, 0}: {state{-1, -1}, -1}}
	queue := []state{{0, 0}}
	build := func(s state) string {
		var rev []byte
		for s.i >= 0 {
			v := seen[s]
			if v.c >= 0 {
				rev = append(rev, byte(v.c))
			}
			s = v.prev
		}
		for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
			rev[l], rev[r] = rev[r], rev[l]
		}
		return string(rev)
	}
	push := func(next state, from state, c int) {
		if _, ok := seen[next]; ok {
			return
		}
		seen[next] = via{from, c}
		queue = append(queue, next)
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s.i == n && s.j == m {
			return build(s), true
		}
		aStar := s.i < n && a[s.i] == '*'
		bStar := s.j < m && b[s.j] == '*'
		// Epsilon moves: a star may match the empty run.
		if aStar {
			push(state{s.i + 1, s.j}, s, -1)
		}
		if bStar {
			push(state{s.i, s.j + 1}, s, -1)
		}
		// Consuming moves need a byte both sides accept. Two stars never
		// need to consume together: skipping one (epsilon) reaches every
		// state a joint consume could.
		switch {
		case s.i < n && s.j < m && !aStar && !bStar:
			if a[s.i] == b[s.j] {
				push(state{s.i + 1, s.j + 1}, s, int(a[s.i]))
			}
		case aStar && s.j < m && !bStar:
			push(state{s.i, s.j + 1}, s, int(b[s.j]))
		case bStar && s.i < n && !aStar:
			push(state{s.i + 1, s.j}, s, int(a[s.i]))
		}
	}
	return "", false
}
