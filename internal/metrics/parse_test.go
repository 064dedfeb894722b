package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestParseAcceptsFullGrammar exercises the corners of the exposition
// grammar the lint must accept: free-form comments, trailing
// timestamps, special float values, spaces inside label blocks, and
// histogram suffix resolution to the base family.
func TestParseAcceptsFullGrammar(t *testing.T) {
	exposition := strings.Join([]string{
		`# a free-form comment, ignored`,
		`#`,
		`# TYPE plain_total counter`,
		`plain_total 3 1712000000000`, // trailing timestamp
		`# TYPE special gauge`,
		`special{v="inf"} +Inf`,
		`special{v="ninf"} -Inf`,
		`special{v="nan"} NaN`,
		`special{ spaced="x" , also="y" } 1`,
		`# HELP h_seconds histogram with suffixes`,
		`# TYPE h_seconds histogram`,
		`h_seconds_bucket{le="0.1"} 1`,
		`h_seconds_bucket{le="+Inf"} 2`,
		`h_seconds_sum 0.6`,
		`h_seconds_count 2`,
	}, "\n") + "\n"
	fams, err := Parse(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := fams["plain_total"].Samples[0].Value; got != 3 {
		t.Errorf("timestamped sample value = %v, want 3", got)
	}
	sp := fams["special"]
	if len(sp.Samples) != 4 {
		t.Fatalf("special samples = %d, want 4", len(sp.Samples))
	}
	if !math.IsInf(sp.Samples[0].Value, 1) || !math.IsInf(sp.Samples[1].Value, -1) || !math.IsNaN(sp.Samples[2].Value) {
		t.Errorf("special values = %+v", sp.Samples[:3])
	}
	if want := map[string]string{"spaced": "x", "also": "y"}; !reflect.DeepEqual(sp.Samples[3].Labels, want) {
		t.Errorf("spaced labels = %v, want %v", sp.Samples[3].Labels, want)
	}
	h := fams["h_seconds"]
	if h == nil || len(h.Samples) != 4 {
		t.Fatalf("histogram suffixes did not fold into base family: %+v", h)
	}
	if err := CheckHistogramInvariants(h); err != nil {
		t.Error(err)
	}
}

// TestParseRejectsMalformedLines is the lint contract: every malformed
// shape CI must catch is an error naming what went wrong.
func TestParseRejectsMalformedLines(t *testing.T) {
	cases := map[string]struct{ in, wantErr string }{
		"invalid name in TYPE":   {"# TYPE 0bad counter\n", "invalid metric name"},
		"missing type keyword":   {"# TYPE only_name\n", "missing type"},
		"unknown type":           {"# TYPE x_total frobnitz\n", "unknown type"},
		"duplicate TYPE":         {"# TYPE d counter\n# TYPE d counter\n", "duplicate # TYPE"},
		"sample without value":   {"# TYPE v counter\nv\n", "no value"},
		"invalid sample name":    {"# TYPE v counter\n0bad 1\n", "invalid sample name"},
		"unparseable value":      {"# TYPE v counter\nv one\n", "sample v"},
		"junk after label":       {"# TYPE v counter\nv{a=\"x\" 1\n", "label without '='"},
		"label without equals":   {"# TYPE v counter\nv{a} 1\n", "label without '='"},
		"invalid label name":     {"# TYPE v counter\nv{0a=\"x\"} 1\n", "invalid label name"},
		"duplicate label":        {"# TYPE v counter\nv{a=\"x\",a=\"y\"} 1\n", "duplicate label"},
		"unquoted label value":   {"# TYPE v counter\nv{a=x} 1\n", "unquoted value"},
		"dangling escape":        {"# TYPE v counter\nv{a=\"x\\\n", "dangling escape"},
		"unknown escape":         {"# TYPE v counter\nv{a=\"\\t\"} 1\n", "unknown escape"},
		"unterminated quote":     {"# TYPE v counter\nv{a=\"x} 1\n", "unterminated quoted"},
		"empty label block tail": {"# TYPE v counter\nv{\n", "unterminated label block"},
	}
	for name, tc := range cases {
		_, err := Parse(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.wantErr)
		}
	}
}

func TestCheckHistogramInvariantViolations(t *testing.T) {
	mk := func(lines ...string) *ParsedFamily {
		exposition := "# TYPE h histogram\n" + strings.Join(lines, "\n") + "\n"
		fams, err := Parse(strings.NewReader(exposition))
		if err != nil {
			t.Fatalf("fixture did not parse: %v", err)
		}
		return fams["h"]
	}
	cases := map[string]struct {
		f       *ParsedFamily
		wantErr string
	}{
		"not a histogram": {&ParsedFamily{Name: "h", Type: "counter"}, "not a histogram"},
		"bucket sans le":  {mk(`h_bucket 1`, `h_sum 0`, `h_count 1`), "without le label"},
		"bad le value":    {mk(`h_bucket{le="wat"} 1`, `h_sum 0`, `h_count 1`), "bad le"},
		"missing sum":     {mk(`h_bucket{le="+Inf"} 1`, `h_count 1`), "missing _sum"},
		"missing count":   {mk(`h_bucket{le="+Inf"} 1`, `h_sum 0`), "missing _count"},
		"missing inf":     {mk(`h_bucket{le="1"} 1`, `h_sum 0`, `h_count 1`), `missing le="+Inf"`},
		"inf vs count":    {mk(`h_bucket{le="+Inf"} 1`, `h_sum 0`, `h_count 2`), "!= _count"},
		"not cumulative": {mk(`h_bucket{le="1"} 5`, `h_bucket{le="2"} 3`,
			`h_bucket{le="+Inf"} 5`, `h_sum 0`, `h_count 5`), "not cumulative"},
	}
	for name, tc := range cases {
		err := CheckHistogramInvariants(tc.f)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.wantErr)
		}
	}
}

func TestHistogramBoundsLengthMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("hlen_seconds", "h", []float64{1, 2}, L("p", "a"))
	defer func() {
		if recover() == nil {
			t.Fatal("bounds length mismatch did not panic")
		}
	}()
	r.Histogram("hlen_seconds", "h", []float64{1}, L("p", "b"))
}

func TestKindString(t *testing.T) {
	for kind, want := range map[Kind]string{
		KindCounter:   "counter",
		KindGauge:     "gauge",
		KindHistogram: "histogram",
		Kind(42):      "Kind(42)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
}

// failWriter errors after n bytes, for the WritePrometheus error path.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, strings.NewReader("").UnreadByte() // any non-nil error
	}
	return len(p), nil
}

func TestWritePrometheusPropagatesWriterError(t *testing.T) {
	r := NewRegistry()
	r.Counter("w_total", "w")
	if err := r.WritePrometheus(&failWriter{n: 4}); err == nil {
		t.Fatal("writer error swallowed")
	}
}
