package audit

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
	"unsafe"
)

func TestJSONWriter(t *testing.T) {
	var buf strings.Builder
	w := NewJSONWriter(&buf)
	rec := Record{
		Time:     time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC),
		Kind:     "authorization",
		Object:   "/cgi-bin/phf",
		Decision: "no",
		ClientIP: "10.0.0.66",
		Details:  map[string]string{"signature": "phf"},
	}
	if err := w.Log(rec); err != nil {
		t.Fatalf("Log: %v", err)
	}
	var got Record
	if err := json.Unmarshal([]byte(buf.String()), &got); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	if got.Object != rec.Object || got.Details["signature"] != "phf" {
		t.Errorf("round trip = %+v", got)
	}
	// Empty optional fields are omitted.
	if strings.Contains(buf.String(), `"user"`) {
		t.Errorf("zero fields should be omitted: %s", buf.String())
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		if err := r.Log(Record{Info: string(rune('a' + i))}); err != nil {
			t.Fatal(err)
		}
	}
	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("retained = %d, want 3", len(recs))
	}
	if recs[0].Info != "c" || recs[2].Info != "e" {
		t.Errorf("order = %v, want oldest-first c..e", infos(recs))
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(10)
	r.Log(Record{Info: "x"})
	r.Log(Record{Info: "y"})
	recs := r.Records()
	if len(recs) != 2 || recs[0].Info != "x" {
		t.Errorf("records = %v", infos(recs))
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestRingMinimumSize(t *testing.T) {
	r := NewRing(0)
	r.Log(Record{Info: "a"})
	r.Log(Record{Info: "b"})
	recs := r.Records()
	if len(recs) != 1 || recs[0].Info != "b" {
		t.Errorf("records = %v, want just b", infos(recs))
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Log(Record{})
			r.Records()
		}()
	}
	wg.Wait()
	if r.Len() != 8 {
		t.Errorf("Len = %d, want 8", r.Len())
	}
}

func TestMulti(t *testing.T) {
	ring1, ring2 := NewRing(4), NewRing(4)
	m := Multi(ring1, ring2)
	if err := m.Log(Record{Info: "x"}); err != nil {
		t.Fatal(err)
	}
	if ring1.Len() != 1 || ring2.Len() != 1 {
		t.Error("Multi did not fan out")
	}

	boom := errors.New("boom")
	failing := LoggerFunc(func(Record) error { return boom })
	m2 := Multi(failing, ring1)
	err := m2.Log(Record{Info: "y"})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if ring1.Len() != 2 {
		t.Error("Multi stopped at first error; all loggers must be attempted")
	}
}

func TestDiscard(t *testing.T) {
	if err := Discard.Log(Record{}); err != nil {
		t.Errorf("Discard.Log = %v", err)
	}
}

func infos(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Info
	}
	return out
}

// TestRingKeepsCopiedPrefixOfLongFields: a record quoting a pathological
// request line is kept as at most MaxField bytes per field, cut on a
// rune boundary and copied — a substring would pin the whole line —
// while a JSONWriter beside the ring still gets the full record.
func TestRingKeepsCopiedPrefixOfLongFields(t *testing.T) {
	long := "/" + strings.Repeat("é", 3*MaxField) // 2-byte runes: MaxField-1 is mid-rune
	var buf strings.Builder
	ring := NewRing(4)
	rec := Record{Kind: "authorization", Object: long, Right: "apache GET " + long, ClientIP: "10.0.0.66",
		Details: map[string]string{"uri": long, "signature": "overflow"}}
	if err := Multi(ring, NewJSONWriter(&buf)).Log(rec); err != nil {
		t.Fatal(err)
	}
	got := ring.Records()[0]
	for name, f := range map[string]string{"Object": got.Object, "Right": got.Right, "Details[uri]": got.Details["uri"]} {
		if len(f) > MaxField || len(f) < MaxField-utf8.UTFMax || !utf8.ValidString(f) {
			t.Errorf("%s kept as %d bytes (valid UTF-8: %v), want a rune-aligned prefix of at most %d", name, len(f), utf8.ValidString(f), MaxField)
		}
		if unsafe.StringData(f) == unsafe.StringData(long) || unsafe.StringData(f) == unsafe.StringData(rec.Right) {
			t.Errorf("%s shares the original's backing array", name)
		}
	}
	if !strings.HasPrefix(long, got.Object) || got.ClientIP != "10.0.0.66" || got.Details["signature"] != "overflow" {
		t.Errorf("kept record %q / %q / %v, want a prefix and the short fields whole", got.Object[:16], got.ClientIP, got.Details["signature"])
	}
	if rec.Details["uri"] != long {
		t.Error("the caller's Details map was modified")
	}
	var written Record
	if err := json.Unmarshal([]byte(buf.String()), &written); err != nil || written.Object != long || written.Details["uri"] != long {
		t.Errorf("JSONWriter got a cut record (err %v)", err)
	}
}

func TestClip(t *testing.T) {
	short := "GET /index.html"
	if s := Clip(short); unsafe.StringData(s) != unsafe.StringData(short) {
		t.Errorf("Clip(%q) = %q, want the string itself", short, s)
	}
	if s := Clip(strings.Repeat("A", MaxField+10)); len(s) != MaxField {
		t.Errorf("Clip(ascii) kept %d bytes, want %d", len(s), MaxField)
	}
	wide := strings.Repeat("A", MaxField-1) + "日本"
	if s := Clip(wide); s != wide[:MaxField-1] {
		t.Errorf("Clip cut mid-rune: kept %d bytes, want %d", len(s), MaxField-1)
	}
	// Not UTF-8 at all: the cut backs off at most UTFMax-1 bytes.
	if s := Clip(strings.Repeat("\x80", 2*MaxField)); len(s) != MaxField-utf8.UTFMax+1 {
		t.Errorf("Clip(continuation bytes) kept %d bytes, want %d", len(s), MaxField-utf8.UTFMax+1)
	}
}

// TestTailCountsEveryPut: Len's total is cumulative across evictions,
// its kept count and Values are the retained tail.
func TestTailCountsEveryPut(t *testing.T) {
	tail := NewTail[int](3)
	if kept, total := tail.Len(); kept != 0 || total != 0 || tail.Values() != nil {
		t.Fatal("new tail not empty")
	}
	for i := 1; i <= 7; i++ {
		tail.Put(i)
	}
	if got := tail.Values(); len(got) != 3 || got[0] != 5 || got[2] != 7 {
		t.Errorf("Values = %v, want [5 6 7]", got)
	}
	if kept, total := tail.Len(); kept != 3 || total != 7 {
		t.Errorf("Len = %d, %d; want 3, 7", kept, total)
	}
}
