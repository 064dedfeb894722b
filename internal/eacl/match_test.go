package eacl

import (
	"math/rand"
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
