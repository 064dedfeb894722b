package gaahttp

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"gaaapi/internal/audit"
	"gaaapi/internal/gaa"
	"gaaapi/internal/httpd"
)

// TestStackCacheHitRatioOnSprawl runs a lookup stream shaped like the
// benchmark's sprawl workload through NewStack's policy cache: 64
// directory policies over 16 384 objects, popularity Zipf(s = 1.1,
// v = 8), the ranks scattered over the objects by rank × 2654435761.
// After 50 000 warm-up lookups, 150 000 more must hit at least 82 % of
// the time. Then the whole hot set moves: the ranks map onto 16 384
// objects never seen before. A new entry stays on probation until its
// first hit, so the cache adapts more slowly than LRU would, but it
// must adapt: lookups 100 000–150 000 after the move must hit at least
// 78 % of the time.
func TestStackCacheHitRatioOnSprawl(t *testing.T) {
	const dirs, docs = 64, 256
	local := make(map[string]string, dirs)
	objects := make([]string, 0, dirs*docs)
	moved := make([]string, 0, dirs*docs)
	for d := 0; d < dirs; d++ {
		local[fmt.Sprintf("/d%02d/*", d)] = fmt.Sprintf("neg_access_right apache GET /d%02d/private*\npos_access_right apache *\n", d)
		for i := 0; i < docs; i++ {
			objects = append(objects, fmt.Sprintf("/d%02d/doc%03d.html", d, i))
			moved = append(moved, fmt.Sprintf("/d%02d/new%03d.html", d, i))
		}
	}
	st, err := NewStack(StackConfig{
		SystemPolicy:  "neg_access_right apache GET /cgi-bin/phf*\npos_access_right apache *\n",
		LocalPolicies: local,
		PolicyCache:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	system, loc := []gaa.PolicySource{st.SystemSwap}, []gaa.PolicySource{st.LocalSwap}
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 8, uint64(len(objects)-1))
	// ratio looks up n objects and returns the share that hit.
	ratio := func(objects []string, n int) float64 {
		before := st.API.CacheStats()
		for i := 0; i < n; i++ {
			rank := int(zipf.Uint64())
			if _, err := st.API.GetObjectPolicyInfo(objects[rank*2654435761%len(objects)], system, loc); err != nil {
				t.Fatal(err)
			}
		}
		after := st.API.CacheStats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		return float64(hits) / float64(hits+misses)
	}
	ratio(objects, 50000)
	steady := ratio(objects, 150000)
	t.Logf("steady hit ratio %.3f", steady)
	if steady < 0.82 {
		t.Errorf("hit ratio %.3f over sprawl's stream, want >= 0.82", steady)
	}
	dip := ratio(moved, 25000)
	ratio(moved, 75000)
	adapted := ratio(moved, 50000)
	t.Logf("after the move: %.3f over the first 25 000 lookups, %.3f over lookups 100 000–150 000", dip, adapted)
	if adapted < 0.78 {
		t.Errorf("hit ratio %.3f over lookups 100 000–150 000 after the hot set moved, want >= 0.78", adapted)
	}
}

// TestKeptLabelOutlivesItsEntry: the audit ring keeps each decision's
// right, which is the label held in the bytes of the object's
// policy-cache entry. Four goroutines check ten times the cache's
// capacity in objects, each object twice, so that every early entry is
// evicted while later checks fill and read other entries' labels; then
// every label the ring kept must still read as the right it named. Run
// under -race -cpu 1,4 in CI.
func TestKeptLabelOutlivesItsEntry(t *testing.T) {
	const capacity, workers = 64, 4
	api := gaa.New(gaa.WithPolicyCache(capacity))
	src := gaa.NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	ring := audit.NewRing(2 * 10 * capacity)
	g := New(Config{API: api, Local: []gaa.PolicySource{src}, Audit: ring})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 10*capacity; i += workers {
				path := fmt.Sprintf("/kept/doc%04d.html", i)
				rec := &httpd.RequestRec{Time: time.Now(), Method: "GET", Path: path, URI: "GET " + path, ClientIP: "10.0.0.1"}
				for j := 0; j < 2; j++ {
					if v := g.Check(rec); v.Status.Kind != httpd.StatusOK {
						t.Errorf("%s: Check = %+v, want OK", path, v.Status)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := api.CacheStats(); st.Evictions < 8*capacity {
		t.Fatalf("only %d evictions over %d objects", st.Evictions, 10*capacity)
	}
	runtime.GC()
	recs := ring.Records()
	if len(recs) != 2*10*capacity {
		t.Fatalf("ring kept %d records, want %d", len(recs), 2*10*capacity)
	}
	for _, r := range recs {
		if want := "apache GET " + r.Object; r.Right != want {
			t.Errorf("kept right %q for %s, want %q", r.Right, r.Object, want)
		}
	}
}
