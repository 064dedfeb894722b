package experiments

// The harness the experiments share: E1's repeated-trial timing (the
// paper's section 8 protocol — "the experiment was performed 20 times
// ... on average") and paper-style table rendering.

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Stats summarizes repeated trials by their mean, the one figure the
// paper's section 8 table reports.
type Stats struct {
	Mean time.Duration
}

// Measure runs each of fs trials times and summarizes each one's
// per-trial wall time. The calls alternate trial by trial, so a slow
// phase of the host lands on every measurement alike. A non-positive
// trials count defaults to the paper's 20.
func Measure(trials int, fs ...func()) []Stats {
	if trials <= 0 {
		trials = 20
	}
	samples := make([][]time.Duration, len(fs))
	for range trials {
		for i, f := range fs {
			start := time.Now()
			f()
			samples[i] = append(samples[i], time.Since(start))
		}
	}
	out := make([]Stats, len(fs))
	for i := range samples {
		out[i] = Summarize(samples[i])
	}
	return out
}

// Summarize computes the mean over samples.
func Summarize(samples []time.Duration) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return Stats{Mean: sum / time.Duration(len(samples))}
}

// Millis renders the mean in milliseconds with two decimals, the unit
// of the paper's section 8 table.
func (s Stats) Millis() string {
	return fmt.Sprintf("%.2f", float64(s.Mean)/float64(time.Millisecond))
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
