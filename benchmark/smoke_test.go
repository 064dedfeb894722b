package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// lastLine parses the contract's result line.
func lastLine(t *testing.T, out string) contractLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last stdout line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return line
}

// The harness at 1/1000 scale: all five workloads with the oracle on
// and one traced run, through the same entry point the driver uses —
// including building, starting and reaping gaa-httpd. The metric names
// printed must be exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs gaa-httpd")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		benchmarkFile
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	units := map[string]string{}
	var wantE2E, wantLayers []string
	for _, m := range bf.EndToEnd {
		wantE2E, units[m.Name] = append(wantE2E, m.Name), m.Unit
	}
	for _, m := range bf.PerLayer {
		wantLayers, units[m.Name] = append(wantLayers, m.Name), m.Unit
	}
	check := func(what string, got map[string]metric, want []string) {
		t.Helper()
		var names []string
		for n, m := range got {
			names = append(names, n)
			if units[n] != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, n, m.Unit, units[n])
			}
		}
		sort.Strings(names)
		sort.Strings(want)
		if strings.Join(names, " ") != strings.Join(want, " ") {
			t.Errorf("%s prints\n  %v\nBENCHMARK.json declares\n  %v", what, names, want)
		}
	}

	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"--workload", w.Name, "--seed", "11", "--seconds", "10", "--trace", "0"}, 0.001, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d\n%s", w.Name, code, stderr.String())
		}
		line := lastLine(t, stdout.String())
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: result %+v", w.Name, line)
		}
		check(w.Name+" --trace 0", line.Metrics, wantE2E)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "siege", "--seed", "11", "--seconds", "10", "--trace", "1"}, 0.001, &stdout, &stderr); code != 0 {
		t.Fatalf("traced siege: exit %d\n%s", code, stderr.String())
	}
	line := lastLine(t, stdout.String())
	if !line.Correct || line.Failed != 0 {
		t.Errorf("traced siege: result %+v", line)
	}
	check("siege --trace 1", line.Metrics, wantLayers)
	if _, err := os.Stat(filepath.Join("out", "trace-siege.json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join("out", "tmp", "*")); len(left) > 0 {
		t.Errorf("temp directories left behind: %v", left)
	}
}
