package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter = %d", got)
	}
	for i := 0; i < 42; i++ {
		c.Inc()
	}
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

// TestGaugeBasics: a gauge series reads its function at every
// collection.
func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	v := 2.5
	r.GaugeFunc("g", "g", func() float64 { return v })
	if got := r.Values()["g"]; got != 2.5 {
		t.Fatalf("Value = %v", got)
	}
	v -= 1.5
	if got := r.Values()["g"]; got != 1.0 {
		t.Fatalf("after the change = %v", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)                        // bucket 0
	h.Observe(0.001)                         // bucket 0 (le is inclusive)
	h.Observe(0.005)                         // bucket 1
	h.ObserveDuration(50 * time.Millisecond) // bucket 2
	h.Observe(3)                             // +Inf
	snap := h.Snapshot()
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, snap.Counts[i], w)
		}
	}
	if snap.Count != 5 {
		t.Errorf("Count = %d, want 5", snap.Count)
	}
	wantSum := 0.0005 + 0.001 + 0.005 + 0.05 + 3
	if math.Abs(snap.Sum-wantSum) > 1e-9 {
		t.Errorf("Sum = %v, want %v", snap.Sum, wantSum)
	}
}

func TestHistogramWeightedObservation(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.1})
	h.ObserveDurationWeighted(5*time.Millisecond, 4) // bucket 1, weight 4
	h.ObserveDurationWeighted(time.Second, 0)        // weight 0: no-op
	h.ObserveDuration(5 * time.Millisecond)          // weight 1
	snap := h.Snapshot()
	if snap.Counts[1] != 5 {
		t.Errorf("bucket 1 = %d, want 5 (4 weighted + 1 plain)", snap.Counts[1])
	}
	if snap.Count != 5 {
		t.Errorf("Count = %d, want 5", snap.Count)
	}
	if want := 5 * 0.005; math.Abs(snap.Sum-want) > 1e-9 {
		t.Errorf("Sum = %v, want %v (duration times total weight)", snap.Sum, want)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(-5)
	h.ObserveDuration(-time.Second)
	snap := h.Snapshot()
	if snap.Counts[0] != 2 || snap.Sum != 0 {
		t.Fatalf("snapshot = %+v, want both clamped into first bucket with zero sum", snap)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds did not panic")
		}
	}()
	NewHistogram([]float64{2, 1})
}

func TestRegistryDuplicateSeriesPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "d", L("a", "x"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series did not panic")
		}
	}()
	r.Counter("dup_total", "d", L("a", "x"))
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.GaugeFunc("clash", "g", func() float64 { return 0 })
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "0leading", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			r.Counter(name, "bad")
		}()
	}
}

func TestRegistryReservedLabelPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("le label did not panic")
		}
	}()
	r.Counter("c_total", "c", L("le", "1"))
}

func TestRegistryHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h_seconds", "h", []float64{1, 2}, L("p", "a"))
	defer func() {
		if recover() == nil {
			t.Fatal("bounds mismatch did not panic")
		}
	}()
	r.Histogram("h_seconds", "h", []float64{1, 3}, L("p", "b"))
}

func TestValidNames(t *testing.T) {
	for name, want := range map[string]bool{
		"gaa_decisions_total": true,
		"a:b":                 true,
		"_hidden":             true,
		"9lives":              false,
		"":                    false,
		"with-dash":           false,
	} {
		if got := ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]bool{
		"phase":    true,
		"__meta":   false,
		"":         false,
		"ok_2":     true,
		"bad:name": false,
	} {
		if got := ValidLabelName(name); got != want {
			t.Errorf("ValidLabelName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestValuesSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("v_total", "v", L("k", "a"))
	for i := 0; i < 7; i++ {
		c.Inc()
	}
	r.GaugeFunc("v_gauge", "v", func() float64 { return 1.5 })
	h := r.Histogram("v_seconds", "v", []float64{0.1})
	h.Observe(0.05)
	h.Observe(5)
	r.CounterFunc("v_fn_total", "v", func() uint64 { return 11 })
	r.GaugeFunc("v_fn_gauge", "v", func() float64 { return -2 })

	vals := r.Values()
	checks := map[string]float64{
		`v_total{k="a"}`:              7,
		"v_gauge":                     1.5,
		"v_fn_total":                  11,
		"v_fn_gauge":                  -2,
		`v_seconds_bucket{le="0.1"}`:  1,
		`v_seconds_bucket{le="+Inf"}`: 2,
		"v_seconds_count":             2,
	}
	for k, want := range checks {
		if got, ok := vals[k]; !ok || got != want {
			t.Errorf("Values[%q] = %v (present=%v), want %v", k, got, ok, want)
		}
	}
}

func TestEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "help with \\ backslash\nand newline", L("v", "quote\" back\\slash\nnewline"))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP esc_total help with \\ backslash\nand newline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{v="quote\" back\\slash\nnewline"} 0`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	// Round-trip: the parser must recover the original strings.
	fams, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse back: %v", err)
	}
	f := fams["esc_total"]
	if f == nil || f.Help != "help with \\ backslash\nand newline" {
		t.Errorf("round-tripped help = %+v", f)
	}
	if len(f.Samples) != 1 || f.Samples[0].Labels["v"] != "quote\" back\\slash\nnewline" {
		t.Errorf("round-tripped label = %+v", f.Samples)
	}
}

func TestParseRejectsUnregistered(t *testing.T) {
	_, err := Parse(strings.NewReader("orphan_total 5\n"))
	if err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("err = %v, want unregistered-metric error", err)
	}
}

func TestParseRejectsDuplicateSeries(t *testing.T) {
	exposition := "# TYPE d_total counter\nd_total{a=\"x\"} 1\nd_total{a=\"x\"} 2\n"
	_, err := Parse(strings.NewReader(exposition))
	if err == nil || !strings.Contains(err.Error(), "duplicate series") {
		t.Fatalf("err = %v, want duplicate-series error", err)
	}
}

func TestParseRejectsTypeAfterSamples(t *testing.T) {
	exposition := "# TYPE x_total counter\nx_total 1\n# TYPE x_total counter\n"
	_, err := Parse(strings.NewReader(exposition))
	if err == nil {
		t.Fatal("TYPE after samples accepted")
	}
}
