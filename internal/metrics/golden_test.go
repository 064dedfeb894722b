package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden exposition fixtures")

// goldenRegistry builds a registry exercising every metric kind, label
// escaping, multi-series families and histogram rendering with
// deterministic values — the exposition contract the stack's metric
// names depend on.
func goldenRegistry() *Registry {
	r := NewRegistry()

	yes := r.Counter("gaa_decisions_total", "Authorization decisions by phase and outcome.",
		L("phase", "check"), L("decision", "yes"))
	for i := 0; i < 12; i++ {
		yes.Inc()
	}
	no := r.Counter("gaa_decisions_total", "Authorization decisions by phase and outcome.",
		L("phase", "check"), L("decision", "no"))
	for i := 0; i < 3; i++ {
		no.Inc()
	}
	maybe := r.Counter("gaa_decisions_total", "Authorization decisions by phase and outcome.",
		L("phase", "mid"), L("decision", "maybe"))
	maybe.Inc()

	r.CounterFunc("gaa_policy_cache_hits_total", "Policy cache hits.", func() uint64 { return 90 })
	r.GaugeFunc("gaa_threat_level", "Current IDS threat level (0=low 1=medium 2=high).", func() float64 { return 1 })

	r.GaugeFunc("gaa_netblock_active_blocks", "Live firewall block entries.", func() float64 { return 4 })

	h := r.Histogram("gaa_phase_latency_seconds", "Evaluation latency per enforcement phase.",
		[]float64{1e-6, 1e-3, 0.1}, L("phase", "check"))
	h.Observe(5e-7)
	h.Observe(5e-7)
	h.Observe(2e-4)
	h.Observe(0.05)
	h.Observe(7)
	h2 := r.Histogram("gaa_phase_latency_seconds", "Evaluation latency per enforcement phase.",
		[]float64{1e-6, 1e-3, 0.1}, L("phase", "post"))
	h2.Observe(2e-3)

	esc := r.Counter("gaa_escaping_total", `Help with backslash \ and`+"\nnewline.",
		L("path", `C:\tmp "quoted"`))
	esc.Inc()
	return r
}

func TestGoldenExposition(t *testing.T) {
	r := goldenRegistry()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	path := filepath.Join("testdata", "exposition.prom")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden fixture %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGoldenFixturesParse round-trips every committed fixture through
// the parser: stable names, HELP/TYPE lines, escaping, and histogram
// bucket/_sum/_count invariants.
func TestGoldenFixturesParse(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no .prom fixtures committed under testdata/")
	}
	for _, path := range fixtures {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			fams, err := Parse(f)
			if err != nil {
				t.Fatalf("fixture does not parse: %v", err)
			}
			for name, fam := range fams {
				if !ValidName(name) {
					t.Errorf("invalid family name %q", name)
				}
				if fam.Type == "" {
					t.Errorf("family %s has no TYPE line", name)
				}
				if fam.Type == "histogram" {
					if err := CheckHistogramInvariants(fam); err != nil {
						t.Errorf("histogram invariants: %v", err)
					}
				}
			}
		})
	}
}

// TestGoldenRoundTripValues: parsing the exposition must recover the
// exact sample values the registry reports through Values().
func TestGoldenRoundTripValues(t *testing.T) {
	r := goldenRegistry()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	vals := r.Values()
	parsed := 0
	for _, fam := range fams {
		for _, s := range fam.Samples {
			key := s.Key()
			want, ok := vals[mapKeyFor(s)]
			if !ok {
				t.Errorf("parsed sample %s missing from Values()", key)
				continue
			}
			if s.Value != want {
				t.Errorf("sample %s = %v, Values() says %v", key, s.Value, want)
			}
			parsed++
		}
	}
	if parsed != len(vals) {
		t.Errorf("parsed %d samples, Values() has %d", parsed, len(vals))
	}
}

// mapKeyFor rebuilds the Values() key (sorted labels, le last) for a
// parsed sample.
func mapKeyFor(s Sample) string {
	labels := make([]Label, 0, len(s.Labels))
	var le *Label
	for k, v := range s.Labels {
		if k == "le" {
			le = &Label{Key: k, Value: v}
			continue
		}
		labels = append(labels, Label{Key: k, Value: v})
	}
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && labels[j].Key < labels[j-1].Key; j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
	if le != nil {
		labels = append(labels, *le)
	}
	return s.Name + renderLabels(labels)
}
