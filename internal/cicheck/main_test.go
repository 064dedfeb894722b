package main

import (
	"reflect"
	"testing"
)

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
