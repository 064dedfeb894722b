package main

import (
	"os"
	"slices"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	want := []string{"e1", "e2", "e3", "e6", "e7", "e8", "e9", "e10"}
	if !slices.Equal(ids, want) {
		t.Errorf("-list ids = %v, want %v", ids, want)
	}
}

// TestUnknownExperiment: e4, a retired id, is as unknown as e99.
func TestUnknownExperiment(t *testing.T) {
	for _, id := range []string{"e99", "e4"} {
		var out strings.Builder
		if err := run([]string{"-run", id}, &out); err == nil {
			t.Errorf("-run %s: want error for unknown experiment id", id)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("want flag parse error")
	}
}

// TestBehaviourTablesGolden: every table but E1 prints no timings, so
// its output is pinned byte for byte. Regenerate after an intended
// change with go run ./cmd/gaa-bench -run e2,e3,e6,e7,e8,e9,e10
// -trials 1 > testdata/experiments/behaviour.golden.
func TestBehaviourTablesGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "e2,e3,e6,e7,e8,e9,e10", "-trials", "1"}, &out); err != nil {
		t.Fatalf("run e2,e3,e6,e7,e8,e9,e10: %v\n%s", err, out.String())
	}
	want, err := os.ReadFile("../../testdata/experiments/behaviour.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("behaviour tables drifted from the golden:\n%s", out.String())
	}
}

// TestNotifyZero: -notify 0 is no latency, not the 47ms default.
func TestNotifyZero(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "e1", "-trials", "1", "-notify", "0"}, &out); err != nil {
		t.Fatalf("run e1: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "synthetic notification latency 0s") {
		t.Errorf("E1 note does not read latency 0s:\n%s", out.String())
	}
}
