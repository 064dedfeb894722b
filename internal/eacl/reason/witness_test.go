package reason

import (
	"testing"

	"gaaapi/internal/eacl"
)

// A cube's string witness is the shortest string of its languages
// (eacl.Witness): for one glob, the pattern with its stars removed.
func TestGlobWitness(t *testing.T) {
	cases := []struct{ pattern, want string }{
		{"*", ""},
		{"", ""},
		{"*phf*", "phf"},
		{"GET /cgi-bin/*", "GET /cgi-bin/"},
		{"a*b*c", "abc"},
	}
	for _, tt := range cases {
		got, ok, err := eacl.Witness([]eacl.Language{{Globs: []string{tt.pattern}}}, nil)
		if !ok || err != nil || got != tt.want {
			t.Errorf("witness of %q = %q, %v; want %q", tt.pattern, got, ok, tt.want)
		}
		if !eacl.Glob(tt.pattern, got) {
			t.Errorf("pattern %q does not match its own witness", tt.pattern)
		}
	}
}

// Two right patterns that overlap share a cube, whose witness is the
// shortest string both match.
func TestGlobIntersectWitness(t *testing.T) {
	cases := []struct {
		a, b    string
		ok      bool
		wantLen int // shortest common string length, when ok
	}{
		{"*", "*", true, 0},
		{"abc", "abc", true, 3},
		{"a*", "b*", false, 0},
		{"*phf*", "GET *", true, 7},      // "GET phf"
		{"GET /a/*", "GET */b", true, 8}, // "GET /a/b"
		{"abc", "abd", false, 0},
		{"*", "anything", true, 8},
		{"x*y", "xy", true, 2},
		{"x*y", "xzzy", true, 4},
		{"a", "", false, 0},
	}
	for _, tt := range cases {
		got, ok, err := eacl.Witness([]eacl.Language{{Globs: []string{tt.a}}, {Globs: []string{tt.b}}}, nil)
		if ok != tt.ok || err != nil {
			t.Errorf("witness of %q and %q ok = %v, %v; want %v", tt.a, tt.b, ok, err, tt.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(got) != tt.wantLen {
			t.Errorf("witness of %q and %q = %q (len %d), want len %d", tt.a, tt.b, got, len(got), tt.wantLen)
		}
		if !eacl.Glob(tt.a, got) || !eacl.Glob(tt.b, got) {
			t.Errorf("witness %q not matched by both %q and %q", got, tt.a, tt.b)
		}
	}
}
