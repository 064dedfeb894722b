package gaa

import (
	"strings"

	"gaaapi/internal/eacl"
)

// globTrie indexes a set of '*'-glob patterns by their literal prefix
// (everything before the first star) so that one walk over a subject
// string finds every matching pattern. The compiled decision engine
// uses two of these per compiled EACL — one over the rights' defining
// authorities, one over the right values — replacing per-entry
// eacl.MatchRight globbing.
//
// Soundness rests on a prefix decomposition of the glob language
// (only '*' is a metacharacter; see eacl.Glob): for a pattern
// lit+rest where lit is literal and rest is empty or starts with '*',
//
//	Glob(lit+rest, s)  ⇔  HasPrefix(s, lit) && Glob(rest, s[len(lit):])
//
// Fully literal patterns therefore match exactly the subject equal to
// them (reported at the terminal node when the subject is exhausted),
// and starred patterns match iff the walk reaches the node of their
// literal prefix and the remaining suffix, compiled by shape
// (eacl.CompileGlob: the ubiquitous "*" tail is a constant yes, "*.html"
// a suffix test), accepts the rest of the subject.
// TestGlobTrieMatchesGlob cross-checks insert/match against eacl.Glob
// over fixed and generated pattern sets, and TestCollapseStarsEquivalence
// the canonicalization with eacl.GlobCovers, one eacl.Witness search.
type globTrie struct {
	nodes []trieNode
}

type trieNode struct {
	// labels/targets are the parallel edge arrays (few edges per node;
	// linear scan beats a map here).
	labels  []byte
	targets []int32
	// exact holds the ids of fully-literal patterns ending at this node.
	exact []int32
	// tails holds patterns whose literal prefix ends here; rest is the
	// remainder, starting with '*'.
	tails []trieTail
}

type trieTail struct {
	id   int32
	rest eacl.CompiledGlob
}

func (n *trieNode) next(c byte) int32 {
	for i, l := range n.labels {
		if l == c {
			return n.targets[i]
		}
	}
	return -1
}

// insert adds a pattern under id. Patterns should be canonicalized
// with collapseStars first so equivalent patterns share trie paths.
func (t *globTrie) insert(pattern string, id int32) {
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, trieNode{})
	}
	lit := pattern
	if i := strings.IndexByte(pattern, '*'); i >= 0 {
		lit = pattern[:i]
	}
	n := int32(0)
	for j := 0; j < len(lit); j++ {
		next := t.nodes[n].next(lit[j])
		if next < 0 {
			next = int32(len(t.nodes))
			t.nodes = append(t.nodes, trieNode{})
			t.nodes[n].labels = append(t.nodes[n].labels, lit[j])
			t.nodes[n].targets = append(t.nodes[n].targets, next)
		}
		n = next
	}
	if len(lit) == len(pattern) {
		t.nodes[n].exact = append(t.nodes[n].exact, id)
	} else {
		t.nodes[n].tails = append(t.nodes[n].tails, trieTail{id: id, rest: eacl.CompileGlob(pattern[len(lit):])})
	}
}

// match walks the subject and sets the bit of every matching pattern
// id in bits. It allocates nothing.
func (t *globTrie) match(s string, bits []uint64) {
	if len(t.nodes) == 0 {
		return
	}
	n := int32(0)
	for i := 0; ; i++ {
		node := &t.nodes[n]
		for _, tl := range node.tails {
			if tl.rest.Match(s[i:]) {
				bits[tl.id>>6] |= 1 << (uint(tl.id) & 63)
			}
		}
		if i == len(s) {
			for _, id := range node.exact {
				bits[id>>6] |= 1 << (uint(id) & 63)
			}
			return
		}
		n = node.next(s[i])
		if n < 0 {
			return
		}
	}
}

// collapseStars canonicalizes a glob pattern by collapsing runs of
// consecutive stars into one. The languages are identical — a star
// matches any (possibly empty) substring, so extra stars add nothing —
// which eacl.GlobCovers confirms in both directions, each one
// eacl.Witness search for a string in one language and outside the
// other (GlobCovers(collapsed, p) && GlobCovers(p, collapsed); pinned by
// cover_test.go). Canonical patterns make equal-language entries share
// one trie id.
func collapseStars(p string) string {
	if !strings.Contains(p, "**") {
		return p
	}
	var b strings.Builder
	b.Grow(len(p))
	prevStar := false
	for i := 0; i < len(p); i++ {
		if p[i] == '*' {
			if prevStar {
				continue
			}
			prevStar = true
		} else {
			prevStar = false
		}
		b.WriteByte(p[i])
	}
	return b.String()
}

// bitWords is the number of words in a bitset of n bits.
func bitWords(n int) int { return (n + 63) / 64 }

func growBits(bits []uint64, n int) []uint64 {
	words := bitWords(n)
	if cap(bits) < words {
		return make([]uint64, words)
	}
	return bits[:words]
}

func clearBits(bits []uint64) {
	for i := range bits {
		bits[i] = 0
	}
}

func bitGet(bits []uint64, i int32) bool {
	return bits[i>>6]&(1<<(uint(i)&63)) != 0
}
