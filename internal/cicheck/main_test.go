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
		if got := check(tc.pattern, names); len(got) != tc.bad {
			t.Errorf("check(%q) = %q, want %d problems", tc.pattern, got, tc.bad)
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
