package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is the Prometheus metric type of a family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the exposition TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Label is one constant label on a series. Cardinality is fixed at
// registration time: every series of every family is declared up
// front, so the hot path never allocates label sets and the exposition
// can never grow unbounded.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is one (labels, collector) pair inside a family. Exactly one
// of the value sources is set.
type series struct {
	labels    []Label // sorted by key
	signature string  // rendered label block, "" for unlabeled

	counter   *Counter
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// family is one named metric with its HELP/TYPE metadata and series.
type family struct {
	name, help string
	kind       Kind
	bounds     []float64 // histogram families: shared bucket bounds
	series     []*series
	seen       map[string]bool
}

// Registry holds named metric families and renders them. Registration
// normally happens at start-up; collection (WritePrometheus, Values)
// may run concurrently with writers at any time.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or extends) a counter family and returns the
// series' counter. Repeated calls with the same name and different
// labels add series to one family; duplicate (name, labels) pairs and
// kind mismatches panic — they are programming errors the exposition
// lint must never see.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(name, help, KindCounter, nil, labels, &series{counter: c})
	return c
}

// CounterFunc registers a counter series collected from fn at
// exposition time. Use it to surface pre-existing monotonic counters
// (cache stats, supervision stats, WAL appends) without double
// accounting: the subsystem keeps its own atomics and the registry
// reads them on scrape.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.add(name, help, KindCounter, nil, labels, &series{counterFn: fn})
}

// GaugeFunc registers a gauge series collected from fn at exposition
// time (threat level, active blocks, breaker state).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, KindGauge, nil, labels, &series{gaugeFn: fn})
}

// Histogram registers a histogram series. Every series of one family
// must share identical bucket bounds; nil bounds mean
// DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	r.add(name, help, KindHistogram, h.bounds, labels, &series{hist: h})
	return h
}

// add validates and installs one series.
func (r *Registry) add(name, help string, kind Kind, bounds []float64, labels []Label, s *series) {
	if !ValidName(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !ValidLabelName(l.Key) {
			panic("metrics: invalid label name " + strconv.Quote(l.Key) + " on " + name)
		}
		if l.Key == "le" {
			panic("metrics: label name \"le\" is reserved for histogram buckets (" + name + ")")
		}
	}
	s.labels = append([]Label(nil), labels...)
	sort.Slice(s.labels, func(i, j int) bool { return s.labels[i].Key < s.labels[j].Key })
	s.signature = renderLabels(s.labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, seen: make(map[string]bool)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic("metrics: " + name + " registered as both " + f.kind.String() + " and " + kind.String())
	}
	if kind == KindHistogram && !equalBounds(f.bounds, bounds) {
		panic("metrics: histogram " + name + " registered with differing bucket bounds")
	}
	if f.seen[s.signature] {
		panic("metrics: duplicate series " + name + s.signature)
	}
	f.seen[s.signature] = true
	// Insert in signature order under the lock: collection snapshots
	// the slice as-is and must never re-sort shared state outside r.mu.
	i := sort.Search(len(f.series), func(i int) bool { return f.series[i].signature > s.signature })
	f.series = append(f.series, nil)
	copy(f.series[i+1:], f.series[i:])
	f.series[i] = s
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// familyView is a per-collection snapshot of one family: the immutable
// metadata plus a copy of the series slice taken under r.mu. Series are
// kept signature-sorted at insertion, so collection never touches (let
// alone mutates) shared registry state outside the lock — concurrent
// scrapes only race on the striped atomics, which is their contract.
type familyView struct {
	name, help string
	kind       Kind
	series     []*series
}

// sortedFamilies snapshots every family under the lock; the per-series
// value reads afterwards are lock-free against writers.
func (r *Registry) sortedFamilies() []familyView {
	r.mu.Lock()
	fams := make([]familyView, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, familyView{
			name:   f.name,
			help:   f.help,
			kind:   f.kind,
			series: append([]*series(nil), f.series...),
		})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (0.0.4): families sorted by name, each with HELP
// and TYPE lines, series sorted by label signature, histograms with
// cumulative le buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range f.series {
			writeSeries(&b, f, s)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeSeries(b *strings.Builder, f familyView, s *series) {
	switch f.kind {
	case KindHistogram:
		snap := s.hist.Snapshot()
		cum := uint64(0)
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			writeSample(b, f.name+"_bucket", appendLE(s.labels, formatFloat(bound)), formatUint(cum))
		}
		cum += snap.Counts[len(snap.Counts)-1]
		writeSample(b, f.name+"_bucket", appendLE(s.labels, "+Inf"), formatUint(cum))
		writeSample(b, f.name+"_sum", s.labels, formatFloat(snap.Sum))
		writeSample(b, f.name+"_count", s.labels, formatUint(snap.Count))
	case KindCounter:
		v := uint64(0)
		if s.counter != nil {
			v = s.counter.Value()
		} else {
			v = s.counterFn()
		}
		writeSample(b, f.name, s.labels, formatUint(v))
	case KindGauge:
		writeSample(b, f.name, s.labels, formatFloat(s.gaugeFn()))
	}
}

func writeSample(b *strings.Builder, name string, labels []Label, value string) {
	b.WriteString(name)
	b.WriteString(renderLabels(labels))
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// appendLE returns labels plus a trailing le label (the conventional
// last position for bucket bounds).
func appendLE(labels []Label, le string) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, Label{Key: "le", Value: le})
}

// renderLabels renders a sorted label block: `{a="x",b="y"}` or "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslashes, double quotes and newlines.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Values returns every sample as a flat name{labels} -> value map:
// plain series under their rendered name, histograms as _bucket
// (cumulative), _sum and _count samples. It is the machine-readable
// snapshot the benchmark harness diffs before and after a run.
func (r *Registry) Values() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.sortedFamilies() {
		for _, s := range f.series {
			switch f.kind {
			case KindHistogram:
				snap := s.hist.Snapshot()
				cum := uint64(0)
				for i, bound := range snap.Bounds {
					cum += snap.Counts[i]
					out[f.name+"_bucket"+renderLabels(appendLE(s.labels, formatFloat(bound)))] = float64(cum)
				}
				cum += snap.Counts[len(snap.Counts)-1]
				out[f.name+"_bucket"+renderLabels(appendLE(s.labels, "+Inf"))] = float64(cum)
				out[f.name+"_sum"+s.signature] = snap.Sum
				out[f.name+"_count"+s.signature] = float64(snap.Count)
			case KindCounter:
				if s.counter != nil {
					out[f.name+s.signature] = float64(s.counter.Value())
				} else {
					out[f.name+s.signature] = float64(s.counterFn())
				}
			case KindGauge:
				out[f.name+s.signature] = s.gaugeFn()
			}
		}
	}
	return out
}

// ValidName reports whether s is a legal Prometheus metric name.
func ValidName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ValidLabelName reports whether s is a legal Prometheus label name.
func ValidLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
