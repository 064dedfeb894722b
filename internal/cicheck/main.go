// Command cicheck holds the -run lists of a GitHub Actions workflow to
// the tests they name. go test treats a -run pattern that matches
// nothing as a pass, so a renamed test silently drops out of the step
// that pins it. For every go test command with -run, the top-level part
// (before any /) of each |-alternative must match a test, benchmark,
// fuzz target or example that `go test -list .` reports in that
// command's packages. The run-nothing patterns "xxx" and "^$" are
// exempt.
//
//	go run ./internal/cicheck .github/workflows/ci.yml
package main

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
)

// goTest is one go test command of the workflow that has a -run list.
type goTest struct {
	line int    // 1-based line of the workflow the command starts on
	dir  string // go -C dir, "" for the repository root
	run  string
	pkgs []string
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: cicheck workflow.yml")
		os.Exit(2)
	}
	text, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	listed := map[string][]string{}
	failed := false
	cmds := commands(string(text))
	for _, c := range cmds {
		key := c.dir + "\x00" + strings.Join(c.pkgs, " ")
		if _, ok := listed[key]; !ok {
			names, err := list(c.dir, c.pkgs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s:%d: %v\n", os.Args[1], c.line, err)
				os.Exit(2)
			}
			listed[key] = names
		}
		for _, p := range check(c.run, listed[key]) {
			fmt.Printf("%s:%d: -run %q in %s: %s\n", os.Args[1], c.line, c.run, strings.Join(c.pkgs, " "), p)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("%d -run lists name only tests that exist\n", len(cmds))
}

// list returns the names go test -list reports for pkgs, run in dir.
func list(dir string, pkgs []string) ([]string, error) {
	args := append([]string{"test", "-list", "."}, pkgs...)
	if dir != "" {
		args = append([]string{"-C", dir}, args...)
	}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	var names []string
	for _, l := range strings.Split(string(out), "\n") {
		if l != "" && !strings.ContainsAny(l, " \t") {
			names = append(names, l)
		}
	}
	return names, nil
}

// check returns what is wrong with pattern against the listed names.
func check(pattern string, names []string) []string {
	if pattern == "xxx" || pattern == "^$" {
		return nil
	}
	var problems []string
	for _, alt := range split(pattern, '|') {
		top := split(alt, '/')[0]
		re, err := regexp.Compile(top)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if !slices.ContainsFunc(names, re.MatchString) {
			problems = append(problems, fmt.Sprintf("%q matches no test", top))
		}
	}
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
