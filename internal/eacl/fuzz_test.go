package eacl

import (
	"strings"
	"testing"
)

// FuzzParse checks that the parser never panics and that every policy
// it accepts round-trips through the canonical printer.
func FuzzParse(f *testing.F) {
	f.Add(policy71System)
	f.Add(policy72Local)
	f.Add("eacl_mode stop\npos_access_right a b c\npre_cond_x y z w\n")
	f.Add("# only comments\n\n")
	f.Add("pos_access_right apache *\nmid_cond_quota local cpu_ms<=50")
	f.Add("eacl mode 2\nneg_access_right * *")
	// Analyzer crash seeds: inputs that stress the static-analysis
	// rules downstream of the parser (bad values, contradictions,
	// shadowing globs, composition-sensitive shapes).
	f.Add("pos_access_right apache GET /cgi-bin/*\nneg_access_right apache GET /cgi-bin/phf\npre_cond_regex gnu *phf*")
	f.Add("neg_access_right apache *\npre_cond_regex gnu re:[unclosed\npre_cond_location local 300.0.0.0/8")
	f.Add("pos_access_right apache *\npre_cond_time_window local 09:00-09:00\npre_cond_time_window local 10:00-11:00 Mon")
	f.Add("pos_access_right apache *\npre_cond_system_threat_level local =high\npre_cond_system_threat_level local =low")
	f.Add("neg_access_right apache *\npre_cond_threshold local counter= key= max=x window=-1s")
	f.Add("pos_access_right apache *\npost_cond_file_sha256 local /etc/passwd nothex")
	f.Add("eacl_mode stop\nneg_access_right * *\npre_cond_expr local input_length>@max_input")
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParseString(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		printed := e.String()
		again, err := ParseString(printed)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\ninput: %q\nprinted: %q", err, src, printed)
		}
		if again.String() != printed {
			t.Fatalf("printing is not a fixpoint:\nfirst:  %q\nsecond: %q", printed, again.String())
		}
		if len(again.Entries) != len(e.Entries) {
			t.Fatalf("entry count changed across round trip: %d -> %d", len(e.Entries), len(again.Entries))
		}
	})
}

// globRef is Glob's definition written for obviousness, not speed: a
// star matches every split of the subject, any other byte matches
// itself. Exponential in the number of stars; fuzz inputs are short.
func globRef(pattern, s string) bool {
	if pattern == "" {
		return s == ""
	}
	if pattern[0] == '*' {
		for i := 0; i <= len(s); i++ {
			if globRef(pattern[1:], s[i:]) {
				return true
			}
		}
		return false
	}
	return s != "" && pattern[0] == s[0] && globRef(pattern[1:], s[1:])
}

// FuzzGlob holds the iterative matcher to its definition (globRef) —
// it is in turn the reference for the compiled engine's tries and glob
// shapes — and to the trivial containment facts.
func FuzzGlob(f *testing.F) {
	f.Add("*phf*", "GET /cgi-bin/phf")
	f.Add("a*b*c", "abc")
	f.Add("", "")
	f.Add("***", "anything")
	f.Add("*a*a*a*b", "aaaaaaaaaaaaaaaa")
	f.Add("a*\x00", "a\xff\x00")
	f.Fuzz(func(t *testing.T, pattern, s string) {
		got := Glob(pattern, s)
		if strings.Count(pattern, "*") <= 4 && len(s) <= 32 { // keeps globRef's worst case small
			if want := globRef(pattern, s); got != want {
				t.Fatalf("Glob(%q, %q) = %v, definition says %v", pattern, s, got, want)
			}
		}
		// "*" + pattern + "*" must match at least everything pattern
		// matches (widening property).
		if got && !Glob("*"+pattern+"*", s) {
			t.Fatalf("widening violated: Glob(%q, %q) but not Glob(%q, %q)",
				pattern, s, "*"+pattern+"*", s)
		}
		// A pattern without metacharacters matches only itself.
		if !strings.Contains(pattern, "*") {
			if got != (pattern == s) {
				t.Fatalf("literal pattern %q vs %q: got %v", pattern, s, got)
			}
		}
	})
}
