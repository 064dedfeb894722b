package eacl

// Inclusion and intersection of the '*'-glob language of Glob
// (match.go) are two questions the string search (lang.go) answers over
// languages of one glob each, so in byte mode, as Glob reads them:
// inclusion proves an entry unreachable (an earlier pattern covers
// everything a later one can match), intersection proves two entries
// can fire on the same request (a pos/neg conflict). A pattern covers
// and overlaps itself without a search. Where the search gives up
// (ErrSearchBudget), each answers on the side that claims nothing: not
// covered, overlapping.

// GlobCovers reports whether pattern outer matches every string that
// pattern inner matches — language inclusion L(inner) ⊆ L(outer): no
// string is in inner and outside outer.
//
// GlobCovers("GET /cgi-bin/*", "GET /cgi-bin/phf") is true;
// GlobCovers("*phf*", "*") is false (inner matches "", outer does not).
func GlobCovers(outer, inner string) bool {
	if outer == inner {
		return true
	}
	_, found, err := Witness([]Language{{Globs: []string{inner}}}, []Language{{Globs: []string{outer}}})
	return !found && err == nil
}

// GlobsOverlap reports whether some string is matched by both patterns
// — language intersection L(a) ∩ L(b) ≠ ∅.
//
// GlobsOverlap("GET /a*", "*phf*") is true (e.g. "GET /aphf");
// GlobsOverlap("GET *", "POST *") is false.
func GlobsOverlap(a, b string) bool {
	if a == b {
		return true
	}
	_, found, err := Witness([]Language{{Globs: []string{a}}, {Globs: []string{b}}}, nil)
	return found || err != nil
}

// GlobsEquivalent reports whether two patterns match exactly the same
// strings — language equality, decided as mutual inclusion. Literal
// bytes other than '*' (including '?') must agree; "GET /a?*" and
// "GET /a?**" are equivalent, "GET /a?" and "GET /ab" are not.
func GlobsEquivalent(a, b string) bool {
	return GlobCovers(a, b) && GlobCovers(b, a)
}

// RightCovers reports whether every right matched by inner's patterns
// is also matched by outer's — per-component glob inclusion over the
// defining authority and the value. Signs are ignored, as in
// MatchRight: a neg entry for a right shadows a pos entry for a
// narrower right just the same.
func RightCovers(outer, inner Right) bool {
	return GlobCovers(outer.DefAuth, inner.DefAuth) &&
		GlobCovers(outer.Value, inner.Value)
}

// RightsOverlap reports whether some requested right is matched by both
// entries' patterns. Signs are ignored.
func RightsOverlap(a, b Right) bool {
	return GlobsOverlap(a.DefAuth, b.DefAuth) &&
		GlobsOverlap(a.Value, b.Value)
}

// RightsEquivalent reports whether two rights match exactly the same
// requested rights AND carry the same sign: per-component language
// equality over the defining authority and the value. Unlike the other
// predicates the sign participates, because equivalence is used to
// decide whether one entry can stand in for another.
func RightsEquivalent(a, b Right) bool {
	return a.Sign == b.Sign &&
		GlobsEquivalent(a.DefAuth, b.DefAuth) &&
		GlobsEquivalent(a.Value, b.Value)
}
