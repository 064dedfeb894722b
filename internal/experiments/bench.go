package experiments

// The measurement harness the experiments share: repeated-trial timing
// with summary statistics (the paper's section 8 protocol — "the
// experiment was performed 20 times ... on average") and paper-style
// table rendering.

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Stats summarizes repeated trials.
type Stats struct {
	N                      int
	Mean, Stddev, Min, Max time.Duration
}

// Measure runs f trials times and summarizes the per-trial wall time.
// A non-positive trials count defaults to the paper's 20.
func Measure(trials int, f func()) Stats {
	if trials <= 0 {
		trials = 20
	}
	samples := make([]time.Duration, trials)
	for i := range samples {
		start := time.Now()
		f()
		samples[i] = time.Since(start)
	}
	return Summarize(samples)
}

// Summarize computes statistics over samples.
func Summarize(samples []time.Duration) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	s := Stats{N: len(samples), Min: samples[0], Max: samples[0]}
	var sum float64
	for _, d := range samples {
		sum += float64(d)
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
	}
	mean := sum / float64(len(samples))
	s.Mean = time.Duration(mean)
	var ss float64
	for _, d := range samples {
		diff := float64(d) - mean
		ss += diff * diff
	}
	if len(samples) > 1 {
		s.Stddev = time.Duration(math.Sqrt(ss / float64(len(samples)-1)))
	}
	return s
}

// Millis renders the mean in milliseconds with two decimals, the unit
// of the paper's section 8 table.
func (s Stats) Millis() string {
	return fmt.Sprintf("%.2f", float64(s.Mean)/float64(time.Millisecond))
}

// String renders "mean ± stddev (n=N)".
func (s Stats) String() string {
	return fmt.Sprintf("%v ± %v (n=%d)", s.Mean.Round(time.Microsecond), s.Stddev.Round(time.Microsecond), s.N)
}

// Overhead returns the percentage by which with exceeds base — the
// paper's "the overhead introduced by the GAA-API is 30%" metric.
func Overhead(base, with time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (float64(with) - float64(base)) / float64(base)
}

// Table renders experiment results in aligned columns.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes are printed under the table.
	Notes []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint writes the table to w.
func (t *Table) Fprint(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			width := len(c)
			if i < len(widths) {
				width = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", width, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}
