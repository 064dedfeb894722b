package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		30 * time.Millisecond,
	})
	if s.Mean != 20*time.Millisecond {
		t.Errorf("Mean = %v", s.Mean)
	}
	if got := s.Millis(); got != "20.00" {
		t.Errorf("Millis = %q", got)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.Mean != 0 {
		t.Errorf("empty = %+v", s)
	}
	if s := Summarize([]time.Duration{5 * time.Millisecond}); s.Mean != 5*time.Millisecond {
		t.Errorf("single sample = %+v", s)
	}
}

func TestMeasureRunsTrials(t *testing.T) {
	count := 0
	Measure(5, func() { count++ })
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	count = 0
	Measure(0, func() { count++ })
	if count != 20 {
		t.Errorf("default trials = %d, want 20 (paper protocol)", count)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "E1",
		Header: []string{"configuration", "mean (ms)"},
		Notes:  []string{"20 trials"},
	}
	tbl.AddRow("gaa off", "1.00")
	tbl.AddRow("gaa on", "1.30")
	var buf strings.Builder
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"E1", "configuration", "gaa off", "1.30", "note: 20 trials"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
