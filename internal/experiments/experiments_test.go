package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fmtSscan wraps fmt.Sscan for float parsing with error reporting.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// fastOpts keeps experiment runtime small under `go test`.
func fastOpts() Options {
	return Options{Trials: 2, NotifyLatency: 2 * time.Millisecond, Seed: 2003}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			var out strings.Builder
			if err := r.Run(&out, fastOpts()); err != nil {
				t.Fatalf("%s failed: %v\noutput:\n%s", r.ID, err, out.String())
			}
			if out.Len() == 0 {
				t.Errorf("%s produced no output", r.ID)
			}
		})
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("e1"); !ok {
		t.Error("Find(e1) failed")
	}
	if _, ok := Find("e99"); ok {
		t.Error("Find(e99) should fail")
	}
}

func TestE1OutputShape(t *testing.T) {
	var out strings.Builder
	if err := E1(&out, fastOpts()); err != nil {
		t.Fatalf("E1: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"GAA-API functions", "whole request", "GAA share",
		"5.9 / 53.3", "19.4 / 66.8", "30% / 80%",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("E1 output missing %q:\n%s", want, s)
		}
	}
}

// TestE1NotificationDominates asserts the reproduced shape: with
// notification enabled, the per-request cost rises by roughly the
// notification latency, raising the GAA share of the request.
func TestE1NotificationDominates(t *testing.T) {
	var out strings.Builder
	opts := Options{Trials: 3, NotifyLatency: 20 * time.Millisecond, Seed: 1}
	if err := E1(&out, opts); err != nil {
		t.Fatalf("E1: %v", err)
	}
	// The "with notification" GAA time must exceed the latency floor.
	// (Parsing the rendered row keeps the assertion on the same data
	// the table reports.)
	var gaaRow string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "GAA-API functions") {
			gaaRow = line
		}
	}
	if gaaRow == "" {
		t.Fatalf("no GAA row in output:\n%s", out.String())
	}
	fields := strings.Fields(gaaRow)
	// layout: GAA-API functions (ms) <without> <with> ...
	var nums []float64
	for _, f := range fields {
		var v float64
		if _, err := fmtSscan(f, &v); err == nil {
			nums = append(nums, v)
		}
	}
	if len(nums) < 2 {
		t.Fatalf("cannot parse numbers from row %q", gaaRow)
	}
	without, with := nums[0], nums[1]
	if with < 20 {
		t.Errorf("with-notification GAA time %.2fms, want >= 20ms latency floor", with)
	}
	if with <= without {
		t.Errorf("notification did not increase GAA time: %.2f vs %.2f", with, without)
	}
}
