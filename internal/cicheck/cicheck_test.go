// Package cicheck holds the -run lists of the CI workflow to the tests
// they name. go test treats a -run pattern that matches nothing as a
// pass, so a renamed test silently drops out of the step that pins it.
// For every go test command with -run, the top-level part (before any
// /) of each |-alternative must match a test, benchmark, fuzz target or
// example declared in that command's packages, and each package it
// names (not a ./... pattern) must hold a test it selects. "xxx" and
// "^$" are exempt. The names are read from the test files with
// go/parser, so the check builds nothing.
package cicheck

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// root is the repository root, from this package's directory.
const root = "../.."

const workflow = ".github/workflows/ci.yml"

// TestWorkflowRunLists holds every -run list of the CI workflow to the
// tests its packages declare.
func TestWorkflowRunLists(t *testing.T) {
	text, err := os.ReadFile(filepath.Join(root, workflow))
	if err != nil {
		t.Fatal(err)
	}
	cmds := commands(string(text))
	if len(cmds) == 0 {
		t.Fatalf("%s has no go test command with -run", workflow)
	}
	listed := map[string]map[string][]string{}
	for _, c := range cmds {
		key := c.dir + "\x00" + strings.Join(c.pkgs, " ")
		if _, ok := listed[key]; !ok {
			byPkg, err := list(filepath.Join(root, c.dir), c.pkgs)
			if err != nil {
				t.Fatalf("%s:%d: %v", workflow, c.line, err)
			}
			listed[key] = byPkg
		}
		for _, p := range check(c, listed[key]) {
			t.Errorf("%s:%d: -run %q in %s: %s", workflow, c.line, c.run, strings.Join(c.pkgs, " "), p)
		}
	}
}

// goTest is one go test command of the workflow that has a -run list.
type goTest struct {
	line int    // 1-based line of the workflow the command starts on
	dir  string // go -C dir, "" for the repository root
	run  string
	pkgs []string
}

// list returns the tests, benchmarks, fuzz targets and examples that
// the test files of pkgs declare, by package directory relative to dir,
// as go test -list would report them from dir. A "/..." pattern takes
// every package below it in the same module; a package without test
// files lists nothing.
func list(dir string, pkgs []string) (map[string][]string, error) {
	byPkg := map[string][]string{}
	for _, pkg := range pkgs {
		base, deep := strings.CutSuffix(pkg, "/...")
		base = filepath.Join(dir, base)
		err := filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != base {
				if !deep {
					return filepath.SkipDir
				}
				if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir // another module
				}
			}
			names, err := declared(p)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(dir, p)
			byPkg[rel] = names
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return byPkg, nil
}

// declared returns the names go test would list from the test files of
// the package in dir that the default build context selects.
func declared(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		if ok, err := build.Default.MatchFile(dir, filepath.Base(f)); err != nil || !ok {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && isTest(fd.Name.Name) {
				names = append(names, fd.Name.Name)
			}
		}
	}
	return names, nil
}

// isTest reports whether name is a test, benchmark, fuzz target or
// example name as go test reads one: the prefix, then nothing or a
// character that is not a lower-case letter.
func isTest(name string) bool {
	for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			r, _ := utf8.DecodeRuneInString(rest)
			return rest == "" || !unicode.IsLower(r)
		}
	}
	return false
}

// check returns what is wrong with c's pattern against the names its
// packages list, by package.
func check(c goTest, byPkg map[string][]string) []string {
	if c.run == "xxx" || c.run == "^$" {
		return nil
	}
	var problems []string
	selected := map[string]bool{}
	for _, alt := range split(c.run, '|') {
		top := split(alt, '/')[0]
		re, err := regexp.Compile(top)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		matched := false
		for pkg, names := range byPkg {
			if slices.ContainsFunc(names, re.MatchString) {
				selected[pkg], matched = true, true
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("%q matches no test", top))
		}
	}
	n := len(problems)
	for pkg := range byPkg {
		if !selected[pkg] && !strings.Contains(strings.Join(c.pkgs, " "), "...") {
			problems = append(problems, "it runs nothing in "+pkg)
		}
	}
	slices.Sort(problems[n:])
	return problems
}

// split cuts s at each sep outside brackets and parentheses, as go test
// cuts a -run pattern into alternatives and those into levels.
func split(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' && i+1 < len(s):
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == sep && depth == 0:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

// commands returns the workflow's go test commands that carry -run, from
// its run: lines; comment lines are skipped and a line ending in a
// backslash continues on the next.
func commands(text string) []goTest {
	var out []goTest
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		start, line := i+1, lines[i]
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + lines[i]
		}
		w := words(line)
		for j := 0; j+1 < len(w); j++ {
			if w[j] != "go" {
				continue
			}
			c := goTest{line: start}
			k := j + 1
			if w[k] == "-C" && k+2 < len(w) {
				c.dir, k = w[k+1], k+2
			}
			if w[k] != "test" {
				continue
			}
			for k++; k < len(w) && !strings.Contains("|&;()", w[k]); k++ {
				switch a := w[k]; {
				case a == "-run" && k+1 < len(w):
					k++
					c.run = w[k]
				case strings.HasPrefix(a, "-run="):
					c.run = a[len("-run="):]
				case a == "-bench" || a == "-fuzz" || a == "-skip":
					k++ // a pattern, not a package
				case strings.HasPrefix(a, "."):
					c.pkgs = append(c.pkgs, a)
				}
			}
			if c.run != "" {
				if c.pkgs == nil {
					c.pkgs = []string{"."}
				}
				out = append(out, c)
			}
			j = k
		}
	}
	return out
}

// words splits a shell line into words with their quotes removed; an
// unquoted | & ; ( or ) is a word of its own.
func words(line string) []string {
	var out []string
	var w strings.Builder
	inWord := false
	flush := func() {
		if inWord {
			out = append(out, w.String())
			w.Reset()
			inWord = false
		}
	}
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c == '\'' || c == '"':
			end := strings.IndexByte(line[i+1:], c)
			if end < 0 {
				end = len(line) - i - 1
			}
			w.WriteString(line[i+1 : i+1+end])
			inWord = true
			i += end + 1
		case c == ' ' || c == '\t':
			flush()
		case strings.IndexByte("|&;()", c) >= 0:
			flush()
			out = append(out, string(c))
		default:
			w.WriteByte(c)
			inWord = true
		}
	}
	flush()
	return out
}

func TestCommands(t *testing.T) {
	const workflow = `steps:
      # with ` + "`go test ./internal/metrics -run Golden -update`" + `).
      - run: go test -run xxx -bench . -benchtime=1x ./...
      - run: |
          go test -race -cpu 1,4 -count 3 \
            -run 'TestA|TestB/sub' \
            ./internal/a/ ./internal/b
          go test -run=FuzzC -fuzz FuzzC -fuzztime 30s ./internal/c/ && go -C benchmark test -run "TestD" -v
      - run: go test -cover ./internal/e/ | grep -o 'coverage'
`
	want := []goTest{
		{line: 3, run: "xxx", pkgs: []string{"./..."}},
		{line: 5, run: "TestA|TestB/sub", pkgs: []string{"./internal/a/", "./internal/b"}},
		{line: 8, run: "FuzzC", pkgs: []string{"./internal/c/"}},
		{line: 8, dir: "benchmark", run: "TestD", pkgs: []string{"."}},
	}
	if got := commands(workflow); !reflect.DeepEqual(got, want) {
		t.Errorf("commands =\n%+v\nwant\n%+v", got, want)
	}
}

func TestCheck(t *testing.T) {
	names := []string{"TestEscalate", "TestCampaignReplaySuite", "FuzzGlobList", "BenchmarkGlob"}
	for _, tc := range []struct {
		pattern string
		bad     int
	}{
		{"xxx", 0},
		{"^$", 0},
		{"TestEscalate|FuzzGlobList", 0},
		{"TestCampaignReplaySuite/adaptive|TestEscalate/x", 0},
		{"(TestCampaign|TestGone)/adaptive", 0}, // one alternative at the top level
		{"Glob", 0},
		{"TestEscalateNeverLowers|TestGone/x", 2},
		{"Test[", 1},
	} {
		if got := check(goTest{run: tc.pattern, pkgs: []string{"./..."}}, map[string][]string{"m/a": names}); len(got) != tc.bad {
			t.Errorf("check(%q) = %q, want %d problems", tc.pattern, got, tc.bad)
		}
	}
}

// TestCheckEachPackage: a pattern that matches in one package of a
// command but selects nothing in another it names fails, so deleting
// one package's TestCost fails `-run Cost` over all of them. A ./...
// pattern names no package of its own.
func TestCheckEachPackage(t *testing.T) {
	byPkg := map[string][]string{
		"m/internal/a": {"TestCost", "TestA"},
		"m/internal/b": {"TestB"},
		"m/internal/c": nil, // no test files
	}
	for _, tc := range []struct {
		run  string
		pkgs []string
		want []string
	}{
		{"Cost", []string{"./internal/a/", "./internal/b/", "./internal/c/"}, []string{"it runs nothing in m/internal/b", "it runs nothing in m/internal/c"}},
		{"Cost|TestB|TestD", []string{"./internal/a/", "./internal/b/", "./internal/c/"}, []string{`"TestD" matches no test`, "it runs nothing in m/internal/c"}},
		{"Cost|TestB", []string{"./internal/..."}, nil},
		{"xxx", []string{"./internal/a/", "./internal/b/", "./internal/c/"}, nil},
	} {
		if got := check(goTest{run: tc.run, pkgs: tc.pkgs}, byPkg); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("check(-run %q %v) = %q, want %q", tc.run, tc.pkgs, got, tc.want)
		}
	}
}

func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		s    string
		sep  byte
		want []string
	}{
		{"A|B/x", '|', []string{"A", "B/x"}},
		{"(A|B)/x|C", '|', []string{"(A|B)/x", "C"}},
		{"[/]x/y", '/', []string{"[/]x", "y"}},
		{`a\/b/c`, '/', []string{`a\/b`, "c"}},
	} {
		if got := split(tc.s, tc.sep); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("split(%q, %q) = %q, want %q", tc.s, tc.sep, got, tc.want)
		}
	}
}
