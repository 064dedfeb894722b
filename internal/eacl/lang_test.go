package eacl

import (
	"regexp"
	"strings"
	"testing"
)

// language reads a test spelling of a Language: members separated by
// tabs, "re:" marking an expression.
func language(spec string) Language {
	var l Language
	for _, m := range strings.Split(spec, "\t") {
		if e, ok := strings.CutPrefix(m, "re:"); ok {
			l.Exprs = append(l.Exprs, e)
		} else {
			l.Globs = append(l.Globs, m)
		}
	}
	return l
}

// languages reads one language per line.
func languages(spec string) []Language {
	var out []Language
	for _, line := range strings.Split(spec, "\n") {
		if line != "" {
			out = append(out, language(line))
		}
	}
	return out
}

// matcher is a Language's meaning: some glob matches by Glob, or some
// expression by regexp.MatchString; one that does not compile matches
// nothing.
func matcher(l Language) func(string) bool {
	var res []*regexp.Regexp
	for _, e := range l.Exprs {
		if re, err := regexp.Compile(e); err == nil {
			res = append(res, re)
		}
	}
	return func(s string) bool {
		for _, g := range l.Globs {
			if Glob(g, s) {
				return true
			}
		}
		for _, re := range res {
			if re.MatchString(s) {
				return true
			}
		}
		return false
	}
}

// holds returns whether a string is in every language of in and in no
// language of out.
func holds(in, out []Language) func(string) bool {
	var ins, outs []func(string) bool
	for _, l := range in {
		ins = append(ins, matcher(l))
	}
	for _, l := range out {
		outs = append(outs, matcher(l))
	}
	return func(s string) bool {
		for _, m := range ins {
			if !m(s) {
				return false
			}
		}
		for _, m := range outs {
			if m(s) {
				return false
			}
		}
		return true
	}
}

func TestWitness(t *testing.T) {
	tests := []struct {
		in, out string
		want    string // "" with found false means empty
		found   bool
		err     error
	}{
		{"GET /a*", "GET /a", "GET /a~", true, nil},
		{"*phf*\nGET *", "", "GET phf", true, nil},
		{"GET*\nPOST*", "", "", false, nil},
		{"GET*\n*phf*", "", "GETphf", true, nil},
		{"re:^GET\nre:^POST", "", "", false, nil},
		{`re:^GET\s`, "", "GET\t", true, nil},
		{"*", "*phf*\t*test-cgi*", "", true, nil},
		{"re:[0-9]+", "re:^[0-9]*$", "~0", true, nil},
		{"re:(?i)abc", "abc", "ABC", true, nil},
		{"GET /cgi-bin/sig10*", "GET /cgi-bin/sig1*", "", false, nil},
		{"re:a$", "*a", "", false, nil},
		{`re:\bx`, "x*", "~x", true, nil},
		// Without an expression glob bytes are bytes, UTF-8 or not.
		{"\xff*", "\xff", "\xff~", true, nil},
		// A glob's star crosses a newline, an expression's dot does not.
		{"a*b", `re:^a[^\n]*b$`, "a\nb", true, nil},
		// "\xff\xff" holds, but a search in runes reads \xfe and \xff
		// alike (U+FFFD), so where an expression that matches past ASCII
		// takes part it cannot tell.
		{in: "*\xff*", out: "*\xfe*\tre:^.$", err: errBytesBesideExpr},
		// An expression that matches ASCII alone reads bytes as it reads
		// runes, so the search stays in bytes.
		{"*\xff*", "*\xfe*\tre:[0-9]", "\xff", true, nil},
		{"\xff*\nre:^[0-9a-f:]+$", "", "", false, nil},
		// [fF] parses as a case-folded f, which stays in ASCII; a folded k
		// matches the Kelvin sign, past it.
		{"*\xff*\nre:^[fF]", "", "F\xff", true, nil},
		{in: "*\xff*\nre:(?i)k", err: errBytesBesideExpr},
	}
	for _, tt := range tests {
		in, out := languages(tt.in), languages(tt.out)
		got, found, err := Witness(in, out)
		if err != tt.err {
			t.Errorf("Witness(%q, %q): error %v, want %v", tt.in, tt.out, err, tt.err)
		}
		if found != tt.found || found && got != tt.want {
			t.Errorf("Witness(%q, %q) = %q, %v; want %q, %v", tt.in, tt.out, got, found, tt.want, tt.found)
		}
		if found && !holds(in, out)(got) {
			t.Errorf("Witness(%q, %q) = %q, which the languages do not hold", tt.in, tt.out, got)
		}
	}
}

// TestWitnessBudget: the strings whose 17th byte from the end is an 'a'
// need a state per choice of the last 17 bytes, past the search's
// budget, so it says it cannot tell rather than run on.
func TestWitnessBudget(t *testing.T) {
	if w, found, err := Witness(languages("re:^[ab]*a[ab]{16}$"), nil); err != ErrSearchBudget {
		t.Errorf("Witness = %q, %v, %v; want ErrSearchBudget", w, found, err)
	}
}

// FuzzLanguageWitness holds the search to the matchers: a witness is
// matched by every "in" language (Glob, regexp.MatchString) and by no
// "out" language, and when it finds none, neither does a brute-force
// pass over every string of up to four bytes drawn from the patterns'
// bytes and one byte none of them holds. Inputs are one language per
// line, members separated by tabs, "re:" marking an expression;
// patterns hold no NUL, and bytes past ASCII only where no expression
// takes part (the search then reads bytes, as the brute-force pass does).
func FuzzLanguageWitness(f *testing.F) {
	f.Add("GET*\nPOST*", "")
	f.Add("GET*\n*phf*", "")
	f.Add("re:^GET\nre:^POST", "")
	f.Add("*", "*phf*\tre:cmd")
	f.Add("a*", "a\tre:^ab")
	f.Add(`re:\ba`, "re:(?m)^a$")
	f.Add("\xff*\n*\xc3\xa9*", "\xff\xc3")
	f.Fuzz(func(t *testing.T, inSpec, outSpec string) {
		if len(inSpec)+len(outSpec) > 24 {
			return
		}
		for i := 0; i < len(inSpec+outSpec); i++ {
			if c := (inSpec + outSpec)[i]; c >= 0x80 && strings.Contains(inSpec+outSpec, "re:") || c == 0 {
				return
			}
		}
		in, out := languages(inSpec), languages(outSpec)
		if len(in)+len(out) > 4 {
			return
		}
		inAll := holds(in, out)
		got, found, err := Witness(in, out)
		if err != nil {
			return // undecided within the budget: neither a witness nor "empty"
		}
		if found {
			if !inAll(got) {
				t.Fatalf("Witness(%q, %q) = %q, which the languages do not hold", inSpec, outSpec, got)
			}
			return
		}
		alpha := map[byte]bool{}
		for i := 0; i < len(inSpec+outSpec); i++ {
			if c := (inSpec + outSpec)[i]; c != '\n' && c != '\t' {
				alpha[c] = true
			}
		}
		fresh := byte('~')
		for alpha[fresh] {
			fresh--
		}
		alpha[fresh] = true
		if len(alpha) > 12 {
			return
		}
		var bytes []byte
		for c := range alpha {
			bytes = append(bytes, c)
		}
		var walk func(prefix []byte)
		walk = func(prefix []byte) {
			if inAll(string(prefix)) {
				t.Fatalf("Witness(%q, %q) found nothing, but %q is in every in and no out language", inSpec, outSpec, prefix)
			}
			if len(prefix) == 4 {
				return
			}
			for _, c := range bytes {
				walk(append(prefix, c))
			}
		}
		walk(nil)
	})
}
