package eacl

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func TestGlob(t *testing.T) {
	tests := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "", true},
		{"*", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"*phf*", "/cgi-bin/phf?Qalias=x", true},
		{"*phf*", "/cgi-bin/php", false},
		{"*test-cgi*", "GET /cgi-bin/test-cgi HTTP/1.0", true},
		{"GET /cgi-bin/*", "GET /cgi-bin/phf", true},
		{"GET /cgi-bin/*", "POST /cgi-bin/phf", false},
		{"*%*", "/scripts/..%c0%af../winnt", true},
		{"*%*", "/index.html", false},
		{"a*b*c", "a__b__c", true},
		{"a*b*c", "acb", false},
		{"a*b*c", "abc", true},
		{"**", "x", true},
		{"*a", "bba", true},
		{"*a", "ab", false},
		{"*///////*", "GET ///////////", true},
	}
	for _, tt := range tests {
		if got := Glob(tt.pattern, tt.s); got != tt.want {
			t.Errorf("Glob(%q, %q) = %v, want %v", tt.pattern, tt.s, got, tt.want)
		}
	}
}

// TestGlobMatchesRegexpSemantics cross-checks the backtracking matcher
// against a reference implementation built on regexp.
func TestGlobMatchesRegexpSemantics(t *testing.T) {
	refMatch := func(pattern, s string) bool {
		var re strings.Builder
		re.WriteString("^")
		for i, part := range strings.Split(pattern, "*") {
			if i > 0 {
				re.WriteString(".*")
			}
			re.WriteString(regexp.QuoteMeta(part))
		}
		re.WriteString("$")
		return regexp.MustCompile(re.String()).MatchString(s)
	}
	rng := rand.New(rand.NewSource(7))
	alphabet := "ab*"
	randStr := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 5000; i++ {
		pattern := randStr(rng.Intn(8))
		s := strings.ReplaceAll(randStr(rng.Intn(12)), "*", "c")
		if got, want := Glob(pattern, s), refMatch(pattern, s); got != want {
			t.Fatalf("Glob(%q, %q) = %v, reference = %v", pattern, s, got, want)
		}
	}
}

// TestGlobProperties uses testing/quick for invariants of the matcher.
func TestGlobProperties(t *testing.T) {
	// Every string matches itself once '*' is removed from it.
	selfMatch := func(s string) bool {
		clean := strings.ReplaceAll(s, "*", "")
		return Glob(clean, clean)
	}
	if err := quick.Check(selfMatch, nil); err != nil {
		t.Errorf("self-match property: %v", err)
	}
	// "*" matches everything.
	starMatchesAll := func(s string) bool { return Glob("*", s) }
	if err := quick.Check(starMatchesAll, nil); err != nil {
		t.Errorf("star property: %v", err)
	}
	// Wrapping any literal in stars matches any string containing it.
	containment := func(prefix, needle, suffix string) bool {
		if strings.Contains(needle, "*") {
			return true // skip patterns with metacharacters
		}
		return Glob("*"+needle+"*", prefix+needle+suffix)
	}
	if err := quick.Check(containment, nil); err != nil {
		t.Errorf("containment property: %v", err)
	}
}

func TestMatchRight(t *testing.T) {
	tests := []struct {
		name  string
		entry Right
		req   Right
		want  bool
	}{
		{"both wildcards", Right{Neg, "*", "*"}, Right{Pos, "apache", "GET /"}, true},
		{"authority exact", Right{Pos, "apache", "*"}, Right{Pos, "apache", "GET /x"}, true},
		{"authority mismatch", Right{Pos, "apache", "*"}, Right{Pos, "sshd", "login"}, false},
		{"value glob", Right{Pos, "apache", "GET /cgi-bin/*"}, Right{Pos, "apache", "GET /cgi-bin/phf"}, true},
		{"value mismatch", Right{Pos, "apache", "GET /cgi-bin/*"}, Right{Pos, "apache", "GET /index.html"}, false},
		{"sign ignored", Right{Neg, "apache", "*"}, Right{Pos, "apache", "GET /"}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MatchRight(tt.entry, tt.req); got != tt.want {
				t.Errorf("MatchRight(%v, %v) = %v, want %v", tt.entry, tt.req, got, tt.want)
			}
		})
	}
}

func BenchmarkGlob(b *testing.B) {
	const pattern = "*phf*"
	const s = "GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd HTTP/1.0"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Glob(pattern, s) {
			b.Fatal("unexpected mismatch")
		}
	}
}

// FuzzGlobList holds the one-pass list to its definition: a list
// matches iff eacl.Glob accepts some member. A list is its patterns
// joined by newlines, so a member may hold any other byte. Seeds: every
// pre_cond_regex list of the shipped policies, empty literals, literals
// sharing a first byte or a prefix, and lists mixing the shapes.
func FuzzGlobList(f *testing.F) {
	lists := []string{
		"**", "*", "", "*\n**", "*phf*\n**", "*a*\n*ab*\n*abc*", "*abc*\n*ab*\n*a*",
		"*%c0%af*\n*%255c*\n*%*", "*//*\n*///*\n*/*", "*aa*\n*ab*\n*ba*",
		"*phf*\nGET /cgi-bin/*\n*.html\na*b\nGET /index.html\n*x*y*",
		"*///////////////////*\n*test-cgi*\nre:^GET", "*\x00*\n*\xff*\n\xff*",
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "policies", "*", "*.eacl"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped policies to seed from (%v)", err)
	}
	for _, name := range files {
		text, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		e, err := ParseString(string(text))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		for _, entry := range e.Entries {
			for _, cond := range entry.Conditions {
				if cond.Type == "regex" {
					lists = append(lists, strings.Join(strings.Fields(cond.Value), "\n"))
				}
			}
		}
	}
	subjects := []string{
		"", "a", "ab", "abc", "GET /index.html", "GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd",
		"GET /a///////////////////b", "GET /scripts/..%c0%af../winnt/system32/cmd.exe", "xaay", "\x00\xff",
	}
	// Long subjects, which Match searches literal by literal: each
	// shipped literal at the start, the middle and the end of an
	// overflow line, and runs of literal-starting bytes around the
	// length threshold.
	overflow := "GET /cgi-bin/search?q=" + strings.Repeat("A", 1200)
	for _, lit := range strings.Fields(strings.ReplaceAll(section72List, "*", "")) {
		subjects = append(subjects, lit+overflow, overflow[:600]+lit+overflow[600:], overflow+lit)
	}
	for _, n := range []int{longSubject - 1, longSubject, longSubject + 1} {
		subjects = append(subjects, strings.Repeat("%", n), strings.Repeat("/c", n)[:n], strings.Repeat("c", n))
	}
	for _, l := range lists {
		for _, s := range subjects {
			f.Add(l, s)
		}
	}
	// Lists at the searched maximum of literals and one over it.
	for _, n := range []int{searchedLits, searchedLits + 1} {
		list := strings.Join(fillerLits(n-1), "\n") + "\n*phf*"
		for _, s := range subjects {
			f.Add(list, s)
		}
	}
	f.Fuzz(func(t *testing.T, list, s string) {
		patterns := strings.Split(list, "\n")
		want := false
		for _, p := range patterns {
			want = want || Glob(p, s)
		}
		if got := CompileGlobList(patterns).Match(s); got != want {
			t.Fatalf("CompileGlobList(%q).Match(%q) = %v, some eacl.Glob = %v", patterns, s, got, want)
		}
	})
}

// TestGlobListBeyondTable: literals past what the first-byte table
// indexes still match, one by one.
func TestGlobListBeyondTable(t *testing.T) {
	patterns := make([]string, maxListLits+2)
	for i := range patterns {
		patterns[i] = fmt.Sprintf("*<%d>*", i)
	}
	l := CompileGlobList(patterns)
	if len(l.lits) != maxListLits || len(l.rest) != 2 {
		t.Fatalf("%d literals indexed, %d one by one; want %d and 2", len(l.lits), len(l.rest), maxListLits)
	}
	for _, i := range []int{0, maxListLits - 1, maxListLits, maxListLits + 1} {
		if s := fmt.Sprintf("GET /<%d>/", i); !l.Match(s) {
			t.Errorf("list of %d misses %q", len(patterns), s)
		}
	}
	if l.Match("GET /index.html") {
		t.Error("list matches a subject holding none of its literals")
	}
}

// section72List is the paper's section 7.2 signature list, as the
// shipped local-7.2.eacl writes it.
const section72List = "*phf* *test-cgi* *///////////////////* *%c0%af* *%255c* *cmd.exe* *root.exe*"

// fillerLits returns n *lit* patterns that all start with '%', the byte
// the section 7.2 literals share.
func fillerLits(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("*%%%02x%%*", i)
	}
	return out
}

// TestGlobListLiteralAtEveryOffset walks a literal across every offset
// of subjects under, at and over the length from which Match searches
// literal by literal — a match, or a prefix cut off by the subject's
// end — in lists of one literal, of the searched maximum and of one
// more, against eacl.Glob.
func TestGlobListLiteralAtEveryOffset(t *testing.T) {
	const lit = "%c0%af"
	for _, nlits := range []int{1, searchedLits, searchedLits + 1} {
		patterns := append(fillerLits(nlits-1), "*"+lit+"*")
		l := CompileGlobList(patterns)
		for _, n := range []int{longSubject - 1, longSubject, longSubject + 1, 1200} {
			for _, fill := range []string{"%", "%c", "A"} {
				line := strings.Repeat(fill, n)
				for off := 0; off < n; off++ {
					s := (line[:off] + lit + line)[:n]
					want := false
					for _, p := range patterns {
						want = want || Glob(p, s)
					}
					if got := l.Match(s); got != want {
						t.Fatalf("%d literals, %d bytes of %q, %q at %d: Match = %v, some eacl.Glob = %v", nlits, n, fill, lit, off, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkGlobList times the section 7.2 list on a short legitimate
// line, the overflow probe and lines an attacker fills with a byte
// that starts a literal, and a 64-literal list on 1.2 KB lines.
func BenchmarkGlobList(b *testing.B) {
	overflow := "GET /cgi-bin/search?q=" + strings.Repeat("A", 1200)
	for _, bc := range []struct {
		name     string
		patterns []string
		s        string
	}{
		{"7.2/legit", strings.Fields(section72List), "GET /docs/guide.html"},
		{"7.2/overflow-1.2K", strings.Fields(section72List), overflow},
		{"7.2/pct-1.2K", strings.Fields(section72List), strings.Repeat("%", 1200)},
		{"7.2/slash-c-1.2K", strings.Fields(section72List), strings.Repeat("/c", 600)},
		{"7.2/pct-64K", strings.Fields(section72List), strings.Repeat("%", 64<<10)},
		{"lits64/overflow-1.2K", fillerLits(64), overflow},
		{"lits64/pct-1.2K", fillerLits(64), strings.Repeat("%", 1200)},
	} {
		l := CompileGlobList(bc.patterns)
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.s)))
			for i := 0; i < b.N; i++ {
				if l.Match(bc.s) {
					b.Fatal("unexpected match")
				}
			}
		})
	}
}

// TestGlobShapesClassification pins which shape each kind of pattern
// gets — the fuzz target would pass with everything left general.
func TestGlobShapesClassification(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		want    CompiledGlob
	}{
		{"", CompiledGlob{globExact, ""}},
		{"GET /index.html", CompiledGlob{globExact, "GET /index.html"}},
		{"*", CompiledGlob{globContains, ""}},
		{"***", CompiledGlob{globContains, ""}},
		{"GET /cgi-bin/*", CompiledGlob{globPrefix, "GET /cgi-bin/"}},
		{"*.html", CompiledGlob{globSuffix, ".html"}},
		{"*phf*", CompiledGlob{globContains, "phf"}},
		{"***phf**", CompiledGlob{globContains, "phf"}},
		{"a*b", CompiledGlob{globGeneral, "a*b"}},
		{"*a**b*", CompiledGlob{globGeneral, "*a**b*"}},
	} {
		if got := CompileGlob(tc.pattern); got != tc.want {
			t.Errorf("CompileGlob(%q) = %+v, want %+v", tc.pattern, got, tc.want)
		}
	}
}
