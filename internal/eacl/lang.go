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
// USER or HOST list, an entry's right pattern. Each language compiles to
// one regexp/syntax program, the alternation of its members: a glob is
// its literals joined by any text, held to the end of the text unless it
// ends in '*'; an expression is any text, the expression, any text. The
// answer is a breadth-first search over the product of the programs, a
// state being the instructions each program is at. The product is
// finite, so the search ends, and breadth first, so a witness found is a
// shortest one. Inclusion and intersection of globs (cover.go) are two
// such questions. The product can still grow exponentially (a program's
// sets of instructions), so a search that passes maxSearchNodes states
// gives up with ErrSearchBudget.
//
// Where no expression matches past ASCII the search reads bytes: a
// glob's literal bytes are the runes 0-255 (byte mode), so a glob outside
// UTF-8 keeps Glob's byte semantics, and an ASCII expression reads a
// byte past ASCII as it reads a rune, in none of its classes. Where one
// does the search reads runes, in which a glob outside UTF-8 cannot be
// spelled, so it cannot tell.

// Language is a union of '*'-globs and regular expressions.
type Language struct {
	Globs, Exprs []string
}

// maxSearchNodes bounds the states one search visits; the searches of
// the shipped policies and tests visit at most a few dozen.
const maxSearchNodes = 1 << 14

// ErrSearchBudget is Witness's answer when the search passes
// maxSearchNodes states before it decides.
var ErrSearchBudget = errors.New("the string search exceeds its state budget")

// errBytesBesideExpr is Witness's answer when an expression that matches
// past ASCII and a glob outside UTF-8 share a search.
var errBytesBesideExpr = errors.New("a glob outside UTF-8 shares a string search with an expression")

// Witness returns a shortest string that every language of in matches
// and no language of out does, and whether one exists; or an error when
// it cannot tell: ErrSearchBudget, or another where an expression that
// matches past ASCII and a glob outside UTF-8 take part. An expression
// that does not compile matches nothing. Among the shortest, the one
// read first prefers a byte no pattern names ('~' where it can), then
// lower bytes.
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
	all := append(slices.Clip(in), out...)
	exprs := make([][]*syntax.Regexp, len(all))
	s := &search{nin: len(in)}
	var text []string
	outsideUTF8 := false
	for i, l := range all {
		outsideUTF8 = outsideUTF8 || slices.ContainsFunc(l.Globs, func(g string) bool { return !utf8.ValidString(g) })
		for _, e := range l.Exprs {
			if re, err := syntax.Parse(e, syntax.Perl); err == nil {
				exprs[i], s.exprs = append(exprs[i], re), true
				s.runes = s.runes || !ascii(re)
			}
		}
		text = append(append(text, l.Globs...), l.Exprs...)
	}
	if s.runes && outsideUTF8 {
		return "", false, errBytesBesideExpr
	}
	s.off = []int{0}
	for i, l := range all {
		p := s.compile(l.Globs, exprs[i])
		s.progs, s.off = append(s.progs, p), append(s.off, s.off[i]+(len(p.Inst)+63)>>6)
		for _, in := range p.Inst {
			if in.Op == syntax.InstEmptyWidth {
				s.used |= syntax.EmptyOp(in.Arg)
			}
		}
	}
	fresh, joined := byte('~'), strings.Join(text, "")
	for fresh > 0 && strings.IndexByte(joined, fresh) >= 0 {
		fresh--
	}
	s.alphabet(fresh)
	return s.run()
}

// search is one question's product automaton, the in languages first.
type search struct {
	progs []*syntax.Prog
	off   []int // each program's first word in a node's states, then the end
	nin   int
	exprs bool           // an expression takes part
	runes bool           // one matches past ASCII: the symbols are runes
	used  syntax.EmptyOp // the empty-width steps the programs take
	syms  []symbol

	// scratch, reused from node to node
	seen       bitset
	stack, pcs []uint32
	arena      []uint32 // reach's, emptied at each node
	tried      []symbol
}

// anyText and endText are the parts a glob shares: a star, and the end
// a glob that does not end in one is held to.
var (
	anyText = &syntax.Regexp{Op: syntax.OpStar, Sub: []*syntax.Regexp{{Op: syntax.OpAnyChar}}}
	endText = &syntax.Regexp{Op: syntax.OpEndText}
)

// compile returns one language's program: the alternation of its globs
// and expressions.
func (s *search) compile(globs []string, exprs []*syntax.Regexp) *syntax.Prog {
	alt := &syntax.Regexp{Op: syntax.OpAlternate}
	for _, g := range globs {
		var seq []*syntax.Regexp
		for i, lit := range strings.Split(g, "*") {
			if i > 0 && (len(seq) == 0 || seq[len(seq)-1] != anyText) {
				seq = append(seq, anyText)
			}
			if lit != "" {
				runes := []rune(lit)
				if !s.runes { // byte mode: each byte is a rune
					runes = runes[:0]
					for j := range len(lit) {
						runes = append(runes, rune(lit[j]))
					}
				}
				seq = append(seq, &syntax.Regexp{Op: syntax.OpLiteral, Rune: runes})
			}
		}
		if !strings.HasSuffix(g, "*") {
			seq = append(seq, endText)
		}
		alt.Sub = append(alt.Sub, &syntax.Regexp{Op: syntax.OpConcat, Sub: seq})
	}
	for _, re := range exprs {
		alt.Sub = append(alt.Sub, &syntax.Regexp{Op: syntax.OpConcat, Sub: []*syntax.Regexp{anyText, re, anyText}})
	}
	p, _ := syntax.Compile(alt.Simplify()) // never fails
	return p
}

// bitset is a set of instructions or bytes, one bit each.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// appendTo appends the members of b to out, in ascending order.
func (b bitset) appendTo(out []uint32) []uint32 {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			out = append(out, uint32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// closure appends to out the rune and match instructions program i
// reaches from its state st through the empty-width steps ctx allows.
func (s *search) closure(out []uint32, i int, st bitset, ctx syntax.EmptyOp) []uint32 {
	p, seen := s.progs[i], s.seen[:len(st)]
	clear(seen)
	stack := st.appendTo(s.stack[:0])
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen.has(int(pc)) {
			continue
		}
		seen.set(int(pc))
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
	s.stack = stack
	return out
}

// accepts reports whether program i at st accepts: under the end of the
// text's context, the text read so far; under ctx 0 (no empty-width step
// needed), every continuation of it.
func (s *search) accepts(i int, st bitset, ctx syntax.EmptyOp) bool {
	s.pcs = s.closure(s.pcs[:0], i, st, ctx)
	return slices.ContainsFunc(s.pcs, func(pc uint32) bool { return s.progs[i].Inst[pc].Op == syntax.InstMatch })
}

// symbol is one step of the search: the bytes of a rune, or one byte.
type symbol struct {
	bytes string
	r     rune
}

// ascii reports whether re matches ASCII runes alone (a folded k matches
// the Kelvin sign), so that it reads a byte past ASCII as a rune: in none
// of its classes.
func ascii(re *syntax.Regexp) bool {
	if re.Op == syntax.OpAnyChar || re.Op == syntax.OpAnyCharNotNL {
		return false
	}
	fold := re.Op == syntax.OpLiteral && re.Flags&syntax.FoldCase != 0
	for _, r := range re.Rune {
		for f := r; ; {
			if f > unicode.MaxASCII {
				return false
			}
			if f = unicode.SimpleFold(f); !fold || f == r {
				break
			}
		}
	}
	return !slices.ContainsFunc(re.Sub, func(sub *syntax.Regexp) bool { return !ascii(sub) })
}

// alphabet sets the symbols, the fresh byte first. Where no expression
// takes part that is all: the search tries the literal bytes each state
// is at (symbols). Where one does it adds a rune from every run between
// two bounds the programs' ranges and case folds, newline and the word
// characters name; in byte mode, the bytes among those.
func (s *search) alphabet(fresh byte) {
	s.syms = []symbol{{string([]byte{fresh}), rune(fresh)}}
	if !s.exprs {
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
	for _, p := range s.progs {
		for _, in := range p.Inst {
			for j := 0; in.Op == syntax.InstRune && j+1 < len(in.Rune); j += 2 {
				bounds[in.Rune[j]], bounds[in.Rune[j+1]+1] = true, true
			}
			if in.Op == syntax.InstRune1 || in.Op == syntax.InstRune && len(in.Rune) == 1 {
				single(in.Rune[0])
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
		if sym := (symbol{string(r), r}); r <= hi && r != rune(fresh) && (s.runes || r <= 0xFF) {
			if !s.runes {
				sym.bytes = string([]byte{byte(r)})
			}
			s.syms = append(s.syms, sym)
		}
	}
}

// symbols returns the symbols to try from a node whose programs reach
// the instructions reach: in rune mode the alphabet; in byte mode the
// alphabet and the bytes the reached literals name, since on any other
// byte every program moves as on one of the alphabet's.
func (s *search) symbols(reach [][]uint32) []symbol {
	if s.runes {
		return s.syms
	}
	var live [4]uint64
	for i, pcs := range reach {
		for _, pc := range pcs {
			if in := &s.progs[i].Inst[pc]; in.Op == syntax.InstRune1 {
				bitset(live[:]).set(int(in.Rune[0]))
			}
		}
	}
	s.tried = append(s.tried[:0], s.syms...)
	for _, c := range bitset(live[:]).appendTo(s.stack[:0]) {
		s.tried = append(s.tried, symbol{string([]byte{byte(c)}), rune(c)})
	}
	return s.tried
}

// node is one state of the product: the text's last rune and the
// programs' states, program i's at its words off[i]:off[i+1].
type node struct {
	prev   rune
	states bitset
	parent int
	sym    string
}

// key encodes a node for the seen set: what the programs' empty-width
// steps read of the previous rune, and the states.
func (s *search) key(buf []byte, prev rune, states bitset) []byte {
	buf = append(buf[:0], byte(syntax.EmptyOpContext(prev, -1)&s.used))
	for _, w := range states {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// run is the breadth-first search.
func (s *search) run() (string, bool, error) {
	words := s.off[len(s.progs)]
	start, next := make(bitset, words), make(bitset, words)
	for i, p := range s.progs {
		start.set(s.off[i]<<6 + p.Start)
	}
	s.seen = make(bitset, words)
	nodes := []node{{prev: -1, states: start, parent: -1}}
	buf := s.key(nil, -1, start)
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
		ctx := syntax.EmptyOpContext(n.prev, s.syms[0].r) & s.used
		s.arena = s.arena[:0]
		reach := s.reach(n.states, ctx)
	step:
		for _, sym := range s.symbols(reach) {
			pcs := reach
			if c := syntax.EmptyOpContext(n.prev, sym.r) & s.used; c != ctx {
				pcs = s.reach(n.states, c)
			}
			clear(next)
			for i, p := range s.progs {
				st := s.state(next, i)
				for _, pc := range pcs[i] {
					if in := &p.Inst[pc]; in.Op != syntax.InstMatch && in.MatchRune(sym.r) {
						st.set(int(in.Out))
					}
				}
				if i < s.nin && !slices.ContainsFunc(st, func(w uint64) bool { return w != 0 }) ||
					i >= s.nin && s.accepts(i, st, 0) {
					continue step // an in language is left behind, or an out one is certain
				}
			}
			if buf = s.key(buf, sym.r, next); !seen[string(buf)] {
				seen[string(buf)] = true
				nodes = append(nodes, node{prev: sym.r, states: slices.Clone(next), parent: head, sym: sym.bytes})
			}
		}
	}
	return "", false, nil
}

// reach returns the instructions each program reaches from states
// under ctx.
func (s *search) reach(states bitset, ctx syntax.EmptyOp) [][]uint32 {
	pcs := make([][]uint32, len(s.progs))
	for i := range s.progs {
		from := len(s.arena)
		s.arena = s.closure(s.arena, i, s.state(states, i), ctx)
		pcs[i] = s.arena[from:]
	}
	return pcs
}

// state returns program i's state among states.
func (s *search) state(states bitset, i int) bitset {
	return states[s.off[i]:s.off[i+1]]
}

// holds reports whether the node's text is in every in language and no
// out language.
func (s *search) holds(n node) bool {
	ctx := syntax.EmptyOpContext(n.prev, -1)
	for i := range s.progs {
		if s.accepts(i, s.state(n.states, i), ctx) != (i < s.nin) {
			return false
		}
	}
	return true
}
