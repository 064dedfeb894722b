package main

import (
	"fmt"
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
