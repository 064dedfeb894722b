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
	if s.N != 3 {
		t.Errorf("N = %d", s.N)
	}
	if s.Mean != 20*time.Millisecond {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.Min != 10*time.Millisecond || s.Max != 30*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.Stddev != 10*time.Millisecond {
		t.Errorf("Stddev = %v, want 10ms", s.Stddev)
	}
	if got := s.Millis(); got != "20.00" {
		t.Errorf("Millis = %q", got)
	}
	if !strings.Contains(s.String(), "n=3") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty = %+v", s)
	}
	s := Summarize([]time.Duration{5 * time.Millisecond})
	if s.N != 1 || s.Stddev != 0 || s.Mean != 5*time.Millisecond {
		t.Errorf("single sample = %+v", s)
	}
}

func TestMeasureRunsTrials(t *testing.T) {
	count := 0
	s := Measure(5, func() { count++ })
	if count != 5 || s.N != 5 {
		t.Errorf("count = %d, N = %d", count, s.N)
	}
	count = 0
	Measure(0, func() { count++ })
	if count != 20 {
		t.Errorf("default trials = %d, want 20 (paper protocol)", count)
	}
}

func TestOverhead(t *testing.T) {
	tests := []struct {
		base, with time.Duration
		want       float64
	}{
		{100 * time.Millisecond, 130 * time.Millisecond, 30},
		{100 * time.Millisecond, 100 * time.Millisecond, 0},
		{100 * time.Millisecond, 180 * time.Millisecond, 80},
		{0, 50 * time.Millisecond, 0},
	}
	for _, tt := range tests {
		got := Overhead(tt.base, tt.with)
		if diff := got - tt.want; diff > 0.001 || diff < -0.001 {
			t.Errorf("Overhead(%v, %v) = %v, want %v", tt.base, tt.with, got, tt.want)
		}
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
