package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for i := 1; i <= 11; i++ {
		id := fmt.Sprintf("e%-3d ", i) // the "%-4s " column, so e1 is not found in e10
		if !strings.Contains(out.String(), id) {
			t.Errorf("list output missing %s:\n%s", id, out.String())
		}
	}
}

func TestRunSubset(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-run", "e2,e6", "-trials", "1", "-notify", "1ms"}, &out)
	if err != nil {
		t.Fatalf("run e2,e6: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "E2: network lockdown") {
		t.Errorf("missing E2 table:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "E6: composition mode semantics") {
		t.Errorf("missing E6 table:\n%s", out.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "e99"}, &out); err == nil {
		t.Error("want error for unknown experiment id")
	}
}

func TestBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("want flag parse error")
	}
}

// TestBehaviourTablesGolden: E2, E3 and E9 print no timings, so their
// output is pinned byte for byte. Regenerate after an intended change
// with go run ./cmd/gaa-bench -run e2,e3,e9 -trials 1 >
// testdata/experiments/behaviour.golden.
func TestBehaviourTablesGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "e2,e3,e9", "-trials", "1"}, &out); err != nil {
		t.Fatalf("run e2,e3,e9: %v\n%s", err, out.String())
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
