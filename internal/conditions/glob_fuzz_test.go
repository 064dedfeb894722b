package conditions

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gaaapi/internal/eacl"
)

// FuzzGlobShapes holds the compile-time glob shapes to their
// definition: for any pattern and subject, eacl.CompileGlob(pattern).Match
// answers what eacl.Glob answers. It tests package eacl and belongs
// beside the shapes; it stays here because the suite's floor list names
// each of its seeds under this package (CHANGES.md, PR 21). Seeds: every
// right and condition field (strings.Fields, as the evaluators split
// them) of the shipped policies, the benchmark deployment's section 7.2
// signature list (benchmark/deploy.go), and the edges of each shape.
func FuzzGlobShapes(f *testing.F) {
	subjects := []string{
		"", "a", "ab", "aXb", "GET /index.html", "GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd",
		"GET /a///////////////////b", "GET /scripts/..%c0%af../winnt/system32/cmd.exe", "*", "**",
		"a\x00b", "\x00", "GET /bad\xff\xfeutf8\xc3", "\xff",
	}
	patterns := []string{
		"", "*", "**", "***a***", "a*", "*a", "a*b", "*a*b*", "a", "GET /index.html", "?", "a?c",
		"*\x00*", "\xff*", "*\xc3",
		// benchmark/deploy.go, localPolicy.
		"*phf*", "*test-cgi*", "*///////////////////*", "*%c0%af*", "*%255c*", "*cmd.exe*", "*root.exe*",
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
		e, err := eacl.ParseString(string(text))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		for _, entry := range e.Entries {
			patterns = append(patterns, entry.Right.DefAuth, entry.Right.Value)
			for _, cond := range entry.Conditions {
				patterns = append(patterns, strings.Fields(cond.Value)...)
			}
		}
	}
	seeded := make(map[string]bool)
	for _, p := range patterns {
		if seeded[p] {
			continue
		}
		seeded[p] = true
		for _, s := range subjects {
			f.Add(p, s)
		}
		f.Add(p, p) // a pattern as its own subject: stars as literal bytes
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		g := eacl.CompileGlob(pattern)
		if got, want := g.Match(s), eacl.Glob(pattern, s); got != want {
			t.Fatalf("CompileGlob(%q) = %+v: Match(%q) = %v, eacl.Glob = %v",
				pattern, g, s, got, want)
		}
	})
}
