package costpin

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var sink []byte

// oneAlloc is a row that allocates exactly once.
var oneAlloc = Row{Name: "one", What: "a slice", Run: func() { sink = make([]byte, 64) }}

// fakeTB records what Check reports.
type fakeTB struct {
	testing.TB
	errs []string
}

func (f *fakeTB) Helper()                   {}
func (f *fakeTB) Logf(string, ...any)       {}
func (f *fakeTB) Errorf(s string, a ...any) { f.errs = append(f.errs, fmt.Sprintf(s, a...)) }
func (f *fakeTB) Fatal(a ...any)            { f.errs = append(f.errs, fmt.Sprint(a...)) }

// checkAgainst runs check over rows, the whole ledger or some of it,
// and a golden holding lines.
func checkAgainst(t *testing.T, whole bool, rows []Row, lines ...string) []string {
	path := filepath.Join(t.TempDir(), "cost.golden")
	if err := os.WriteFile(path, []byte("# header\n"+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := &fakeTB{TB: t}
	check(f, path, rows, whole)
	return f.errs
}

func TestCheck(t *testing.T) {
	heapRow := Row{Name: "heap", What: "nothing", Run: func() {}, MaxBytes: 1 << 20}
	for _, tc := range []struct {
		name  string
		some  bool // CheckRows: some of the ledger's rows
		rows  []Row
		lines []string
		want  []string // substrings of the one failure, nil for a pass
	}{
		{"exact", false, []Row{oneAlloc, heapRow}, []string{"one\t1\ta slice", "heap\t≤ 1048576 B\tnothing"}, nil},
		{"golden one below", false, []Row{oneAlloc}, []string{"one\t0\ta slice"}, []string{`"one" costs 1,`, "says 0"}},
		{"stale golden row", false, []Row{oneAlloc}, []string{"one\t1\ta slice", "gone\t0\tx"}, []string{"stale pin", `"gone"`}},
		{"row not in golden", false, []Row{oneAlloc}, nil, []string{`"one" costs 1 and is not in`}},
		{"what drifted", false, []Row{oneAlloc}, []string{"one\t1\ta string"}, []string{`says what "a string"`}},
		{"heap bound drifted", false, []Row{heapRow}, []string{"heap\t≤ 1 B\tnothing"}, []string{"costs ≤ 1048576 B", "says ≤ 1 B"}},
		{"heap over its bound", false, []Row{{Name: "grows", What: "x", Run: func() { sink = make([]byte, 1<<20) }, MaxBytes: 1}},
			[]string{"grows\t≤ 1 B\tx"}, []string{`"grows" grows the heap`}},
		{"some rows, the others' lines", true, []Row{oneAlloc}, []string{"one\t1\ta slice", "other\t0\tx"}, nil},
		{"some rows, one below", true, []Row{oneAlloc}, []string{"one\t0\ta slice", "other\t0\tx"}, []string{`"one" costs 1,`, "says 0"}},
		{"some rows, one not in golden", true, []Row{oneAlloc}, []string{"other\t0\tx"}, []string{`"one" costs 1 and is not in`}},
	} {
		errs := checkAgainst(t, !tc.some, tc.rows, tc.lines...)
		if tc.want == nil {
			if len(errs) != 0 {
				t.Errorf("%s: failed with %q, want a pass", tc.name, errs)
			}
			continue
		}
		if len(errs) != 1 {
			t.Errorf("%s: failures %q, want one", tc.name, errs)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(errs[0], w) {
				t.Errorf("%s: failure %q does not say %q", tc.name, errs[0], w)
			}
		}
	}
}
