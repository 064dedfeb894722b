// Package costpin is the cost ledger: a package pins what its requests
// cost as the rows of one TestCost, and writes each allocation count
// once, in its testdata/cost.golden. Only tests import it.
package costpin

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// Update makes Check rewrite the golden with what it measures.
var Update = flag.Bool("update", false, "rewrite testdata/cost.golden with the measured costs")

// Runs is how often an allocation row's Run is measured.
const Runs = 500

// Row is one pinned cost. MaxBytes makes a heap row: a bound on how far
// Run may grow the live heap, a decision written here and echoed by the
// golden. NoRace leaves the row unmeasured under -race, where sync.Pool
// drops 1 in 4 Puts and the heap holds the detector's state: Run runs
// once, or for a heap row not at all.
type Row struct {
	Name, What string // the golden's key; what it allocates, and who keeps it
	Run        func()
	MaxBytes   int64
	NoRace     bool
}

// Check measures rows and holds them to testdata/cost.golden both ways.
func Check(t testing.TB, rows []Row) {
	t.Helper()
	check(t, "testdata/cost.golden", rows, true)
}

// CheckRows measures some of the ledger's rows and holds each to its
// line in testdata/cost.golden, for a test that pins them under its own
// name. Only Check, given every row, finds a stale line or rewrites the
// golden.
func CheckRows(t testing.TB, rows []Row) {
	t.Helper()
	check(t, "testdata/cost.golden", rows, false)
}

func check(t testing.TB, path string, rows []Row, whole bool) {
	t.Helper()
	if *Update && Race {
		t.Fatal("-update measures counts: run it without -race")
	}
	text, err := os.ReadFile(path)
	if err != nil && !*Update {
		t.Fatal(err)
	}
	golden := map[string]string{} // a row's name: its cost and what
	for _, l := range strings.Split(string(text), "\n") {
		if name, rest, ok := strings.Cut(l, "\t"); ok && !strings.HasPrefix(l, "#") {
			golden[name] = rest
		}
	}
	out := "# The cost ledger (internal/costpin): name, allocations per request or\n# a heap bound, and what it keeps. go test <package> -run Cost -update rewrites it.\n"
	for _, r := range rows {
		rest, ok := golden[r.Name]
		delete(golden, r.Name)
		pinned, what, _ := strings.Cut(rest, "\t")
		cost := measure(t, r)
		if cost == "" { // unmeasured under -race
			cost = pinned
		}
		out += r.Name + "\t" + cost + "\t" + r.What + "\n"
		switch {
		case *Update:
		case !ok:
			t.Errorf("%q costs %s and is not in %s", r.Name, cost, path)
		case cost != pinned:
			t.Errorf("%q costs %s, %s says %s", r.Name, cost, path, pinned)
		case r.What != what:
			t.Errorf("%q: %s says what %q, the row %q", r.Name, path, what, r.What)
		}
	}
	switch {
	case *Update && whole:
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	case *Update, !whole:
		return
	}
	for name := range golden {
		t.Errorf("stale pin: %s has %q and no row measures it", path, name)
	}
}

// measure returns r's cost as the golden spells it, "" if unmeasured.
func measure(t testing.TB, r Row) string {
	t.Helper()
	switch {
	case Race && r.NoRace && r.MaxBytes == 0:
		r.Run()
		return ""
	case Race && r.NoRace:
	case r.MaxBytes > 0:
		before := liveHeap()
		r.Run()
		grew := liveHeap() - before
		t.Logf("%s: heap +%d B", r.Name, grew)
		if grew > r.MaxBytes {
			t.Errorf("%q grows the heap %d B, over its %d", r.Name, grew, r.MaxBytes)
		}
	default:
		return fmt.Sprint(testing.AllocsPerRun(Runs, r.Run))
	}
	return fmt.Sprintf("≤ %d B", r.MaxBytes)
}

// liveHeap returns the live heap after two GCs, the second emptying sync.Pool's victim cache.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
