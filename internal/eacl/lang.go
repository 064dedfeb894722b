package eacl

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"regexp/syntax"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file answers one question about the string languages a policy
// names: is some string in A ∩ B, outside C? A language is a list of
// '*'-globs (Glob) and Go regular expressions (regexp.MatchString, so
// unanchored), matched when some member is: a pre_cond_regex value, a
// USER or HOST list, an entry's right pattern. The answer is a
// breadth-first search over the product of the members' automata: a
// glob is a chain of states whose stars loop, an expression is the
// program regexp/syntax compiles. Both are finite, so the search ends,
// and breadth first, so a witness found is a shortest one. Inclusion
// and intersection of globs (cover.go) are two such questions. The
// product can still grow exponentially (an expression's sets of
// instructions, the states of many globs side by side), so a search
// that passes maxSearchNodes states gives up with ErrSearchBudget.

// Language is a union of '*'-globs and regular expressions.
type Language struct {
	Globs, Exprs []string
}

// maxSearchNodes bounds the states one search visits; the searches of
// the shipped policies and tests visit at most about a thousand.
const maxSearchNodes = 1 << 14

// ErrSearchBudget is Witness's answer when the search passes
// maxSearchNodes states before it decides.
var ErrSearchBudget = errors.New("the string search exceeds its state budget")

// Witness returns a shortest string that every language of in matches
// and no language of out does, and whether one exists; or
// ErrSearchBudget when it cannot tell. An expression that does not
// compile matches nothing. Among the shortest, the one read first
// prefers a byte no pattern names ('~' where it can), then lower bytes.
// Where expressions take part the search reads runes, so a glob byte
// outside UTF-8 reads as U+FFFD there.
func Witness(in, out []Language) (string, bool, error) {
	// Two single globs whose literal starts part ways share no string.
	var starts []string
	for _, l := range in {
		if len(l.Globs) == 1 && len(l.Exprs) == 0 {
			p, _, _ := strings.Cut(l.Globs[0], "*")
			if slices.ContainsFunc(starts, func(q string) bool { return !strings.HasPrefix(p, q) && !strings.HasPrefix(q, p) }) {
				return "", false, nil
			}
			starts = append(starts, p)
		}
	}
	s := &search{nin: len(in)}
	var text []string
	for _, l := range append(slices.Clip(in), out...) {
		a := compileLanguage(l)
		s.all, s.runes = append(s.all, a), s.runes || len(a.progs) > 0
		text = append(append(text, l.Globs...), l.Exprs...)
	}
	fresh := byte('~')
	for fresh > 0 && strings.IndexByte(strings.Join(text, ""), fresh) >= 0 {
		fresh--
	}
	s.alphabet(fresh)
	return s.run()
}

// automaton is one language's automaton: its members' states side by
// side, one bit each.
type automaton struct {
	globs  []string
	levels [][]int // per glob state, its level (dominant)
	progs  []*syntax.Prog
	base   []int // first bit of each member: globs first, then programs
	bits   int
}

func compileLanguage(l Language) *automaton {
	a := &automaton{globs: l.Globs}
	for _, g := range l.Globs {
		level, n := make([]int, len(g)+1), 0
		for j := range level {
			if j < len(g) && g[j] == '*' {
				n++
			}
			level[j] = n // a star shares the level of the states after it
		}
		a.levels, a.base, a.bits = append(a.levels, level), append(a.base, a.bits), a.bits+len(g)+1
	}
	for _, e := range l.Exprs {
		re, err := syntax.Parse(e, syntax.Perl)
		if err != nil {
			continue
		}
		// Unanchored: any text, the expression, any text.
		anyText := &syntax.Regexp{Op: syntax.OpStar, Sub: []*syntax.Regexp{{Op: syntax.OpAnyChar}}}
		p, err := syntax.Compile((&syntax.Regexp{Op: syntax.OpConcat, Sub: []*syntax.Regexp{anyText, re, anyText}}).Simplify())
		if err != nil {
			continue
		}
		a.progs, a.base, a.bits = append(a.progs, p), append(a.base, a.bits), a.bits+len(p.Inst)
	}
	return a
}

// bitset is an automaton state: the member states it is in.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// start is the state before any text: each member at its start, past
// the stars a glob opens with.
func (a *automaton) start() bitset {
	st := make(bitset, (a.bits+63)>>6)
	for k, g := range a.globs {
		for j := 0; j <= len(g) && (j == 0 || g[j-1] == '*'); j++ {
			st.set(a.base[k] + j)
		}
	}
	for k, p := range a.progs {
		st.set(a.base[len(a.globs)+k] + p.Start)
	}
	return st
}

// step consumes one symbol, its bytes for the globs and its rune for
// the programs, read after prev (-1 at the start of the text).
func (a *automaton) step(st bitset, sym symbol, prev rune) bitset {
	next := make(bitset, len(st))
	for k, g := range a.globs {
		cur := a.positions(st, k)
		for i := 0; i < len(sym.bytes) && len(cur) > 0; i++ {
			var nxt []int
			for _, j := range cur {
				if j < len(g) && g[j] == '*' {
					nxt = append(nxt, j)
				} else if j < len(g) && g[j] == sym.bytes[i] {
					nxt = append(nxt, j+1)
				}
			}
			for n := 0; n < len(nxt); n++ { // a star may match nothing
				if j := nxt[n]; j < len(g) && g[j] == '*' {
					nxt = append(nxt, j+1)
				}
			}
			cur = nxt
		}
		for _, j := range dominant(a.levels[k], cur) {
			next.set(a.base[k] + j)
		}
	}
	for k, p := range a.progs {
		base := a.base[len(a.globs)+k]
		for _, pc := range closure(st, base, p, syntax.EmptyOpContext(prev, sym.r)) {
			if in := &p.Inst[pc]; in.Op != syntax.InstMatch && in.MatchRune(sym.r) {
				next.set(base + int(in.Out))
			}
		}
	}
	return next
}

// dominant drops the states a later star dominates. A glob's stars cut
// its states into levels: a star and the states after it, up to the
// next star. Whatever text a state of a lower level accepts, the star of
// the highest level reached accepts too, and that star is in the set
// once anything after it is (it loops on every byte). So the highest
// level alone accepts what the set does, and a glob has at most its
// length times the partial matches of one segment as states: the search
// stays polynomial in globs, where all subsets of their states would
// not.
func dominant(level []int, states []int) []int {
	top := -1
	for _, j := range states {
		top = max(top, level[j])
	}
	return slices.DeleteFunc(states, func(j int) bool { return level[j] < top })
}

// positions returns the states glob k is in.
func (a *automaton) positions(st bitset, k int) []int {
	var out []int
	lo, hi := a.base[k], a.base[k]+len(a.globs[k])
	for w := lo >> 6; w <= hi>>6; w++ {
		for word := st[w]; word != 0; word &= word - 1 {
			if i := w<<6 + bits.TrailingZeros64(word); i >= lo && i <= hi {
				out = append(out, i-lo)
			}
		}
	}
	return out
}

// closure returns the rune and match instructions a program reaches
// from its states through the empty-width steps ctx allows.
func closure(st bitset, base int, p *syntax.Prog, ctx syntax.EmptyOp) []uint32 {
	seen := make([]bool, len(p.Inst))
	var out, stack []uint32
	for pc := range p.Inst {
		if st.has(base + pc) {
			stack = append(stack, uint32(pc))
		}
	}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[pc] {
			continue
		}
		seen[pc] = true
		switch in := &p.Inst[pc]; in.Op {
		case syntax.InstAlt, syntax.InstAltMatch:
			stack = append(stack, in.Out, in.Arg)
		case syntax.InstCapture, syntax.InstNop:
			stack = append(stack, in.Out)
		case syntax.InstEmptyWidth:
			if syntax.EmptyOp(in.Arg)&^ctx == 0 {
				stack = append(stack, in.Out)
			}
		case syntax.InstFail:
		default:
			out = append(out, pc)
		}
	}
	return out
}

// accepts reports whether the text read so far is in the language, when
// ended (ctx is then the end of the text's), or else whether every
// continuation of it is (ctx 0: no empty-width step needed).
func (a *automaton) accepts(st bitset, ctx syntax.EmptyOp, ended bool) bool {
	for k, g := range a.globs {
		// A glob accepts at its end, and every continuation from the
		// first of its trailing stars on.
		from, to := len(strings.TrimRight(g, "*")), len(g)-1
		if ended {
			from, to = len(g), len(g)
		}
		for j := from; j <= to; j++ {
			if st.has(a.base[k] + j) {
				return true
			}
		}
	}
	for k, p := range a.progs {
		for _, pc := range closure(st, a.base[len(a.globs)+k], p, ctx) {
			if p.Inst[pc].Op == syntax.InstMatch {
				return true
			}
		}
	}
	return false
}

// symbol is one step of the search: the bytes of a rune, or one byte.
type symbol struct {
	bytes string
	r     rune
}

// search is one question's product automaton, the in languages first.
type search struct {
	all   []*automaton
	nin   int
	runes bool // an expression takes part: the symbols are runes
	syms  []symbol
}

// alphabet sets one symbol per class of strings no automaton tells
// apart, the fresh byte first: the globs' bytes, or, where expressions
// take part, a rune from every run between two bounds the globs' runes,
// the programs' ranges and case folds, newline and the word characters
// name.
func (s *search) alphabet(fresh byte) {
	s.syms = []symbol{{string([]byte{fresh}), rune(fresh)}}
	if !s.runes {
		var named [256]bool
		for _, a := range s.all {
			for _, g := range a.globs {
				for i := 0; i < len(g); i++ {
					named[g[i]] = g[i] != '*'
				}
			}
		}
		for c, ok := range named {
			if ok {
				s.syms = append(s.syms, symbol{string([]byte{byte(c)}), rune(c)})
			}
		}
		return
	}
	bounds := map[rune]bool{}
	single := func(r rune) {
		bounds[r], bounds[r+1] = true, true
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			bounds[f], bounds[f+1] = true, true
		}
	}
	for _, r := range []rune{0, '\n', '0', '9', 'A', 'Z', '_', 'a', 'z', rune(fresh)} {
		single(r)
	}
	for _, a := range s.all {
		for _, g := range a.globs {
			for _, r := range g {
				single(r)
			}
		}
		for _, p := range a.progs {
			for _, in := range p.Inst {
				for j := 0; in.Op == syntax.InstRune && j+1 < len(in.Rune); j += 2 {
					bounds[in.Rune[j]], bounds[in.Rune[j+1]+1] = true, true
				}
				if in.Op == syntax.InstRune1 || in.Op == syntax.InstRune && len(in.Rune) == 1 {
					single(in.Rune[0])
				}
			}
		}
	}
	cuts := make([]rune, 0, len(bounds))
	for r := range bounds {
		if r <= unicode.MaxRune {
			cuts = append(cuts, r)
		}
	}
	slices.Sort(cuts)
	for i, r := range cuts {
		hi := rune(unicode.MaxRune)
		if i+1 < len(cuts) {
			hi = cuts[i+1] - 1
		}
		if !utf8.ValidRune(r) { // a surrogate does not encode
			r = 0xE000
		}
		if r <= hi && r != rune(fresh) {
			s.syms = append(s.syms, symbol{string(r), r})
		}
	}
}

// node is one state of the product: the text's last rune and each
// automaton's state.
type node struct {
	prev   rune
	states []bitset
	parent int
	sym    string
}

// key encodes a node for the seen set: the previous rune's class, all an
// empty-width step reads of it, and the states.
func key(buf []byte, prev rune, states []bitset) []byte {
	class := byte(3)
	switch {
	case prev < 0:
		class = 0
	case prev == '\n':
		class = 1
	case syntax.IsWordChar(prev):
		class = 2
	}
	buf = append(buf[:0], class)
	for _, st := range states {
		for _, w := range st {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return buf
}

// run is the breadth-first search.
func (s *search) run() (string, bool, error) {
	start := make([]bitset, len(s.all))
	for i, a := range s.all {
		start[i] = a.start()
	}
	nodes := []node{{prev: -1, states: start, parent: -1}}
	buf := key(nil, -1, start)
	seen := map[string]bool{string(buf): true}
	for head := 0; head < len(nodes); head++ {
		n := nodes[head]
		if s.holds(n) {
			var rev []string
			for i := head; i > 0; i = nodes[i].parent {
				rev = append(rev, nodes[i].sym)
			}
			slices.Reverse(rev)
			return strings.Join(rev, ""), true, nil
		}
		if len(nodes) > maxSearchNodes {
			return "", false, ErrSearchBudget
		}
		live := s.literals(n)
	next:
		for _, sym := range s.syms {
			if live != nil && !live[sym.bytes[0]] {
				continue
			}
			states := make([]bitset, len(s.all))
			for i, a := range s.all {
				states[i] = a.step(n.states[i], sym, n.prev)
				if i < s.nin && !slices.ContainsFunc(states[i], func(w uint64) bool { return w != 0 }) ||
					i >= s.nin && a.accepts(states[i], 0, false) {
					continue next // an in language is left behind, or an out one is certain
				}
			}
			if buf = key(buf, sym.r, states); !seen[string(buf)] {
				seen[string(buf)] = true
				nodes = append(nodes, node{prev: sym.r, states: states, parent: head, sym: sym.bytes})
			}
		}
	}
	return "", false, nil
}

// holds reports whether the node's text is in every in language and no
// out language.
func (s *search) holds(n node) bool {
	ctx := syntax.EmptyOpContext(n.prev, -1)
	for i, a := range s.all {
		if a.accepts(n.states[i], ctx, true) != (i < s.nin) {
			return false
		}
	}
	return true
}

// literals returns, among globs alone, the fresh byte and the literal
// bytes the globs are at: on any other byte every glob moves as on the
// fresh one, so only these lead to states of their own. Where
// expressions take part it returns nil: every symbol may.
func (s *search) literals(n node) *[256]bool {
	if s.runes {
		return nil
	}
	var live [256]bool
	live[s.syms[0].bytes[0]] = true
	for i, a := range s.all {
		for k, g := range a.globs {
			for _, j := range a.positions(n.states[i], k) {
				if j < len(g) && g[j] != '*' {
					live[g[j]] = true
				}
			}
		}
	}
	return &live
}
