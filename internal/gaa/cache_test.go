package gaa

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"gaaapi/internal/costpin"
	"gaaapi/internal/eacl"
)

func TestPolicyCacheHitsAndMisses(t *testing.T) {
	a := New(WithPolicyCache(16))
	src := NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	sys := []PolicySource{src}

	p1, err := a.GetObjectPolicyInfo("/x", sys, nil)
	if err != nil {
		t.Fatalf("GetObjectPolicyInfo: %v", err)
	}
	p2, err := a.GetObjectPolicyInfo("/x", sys, nil)
	if err != nil {
		t.Fatalf("GetObjectPolicyInfo: %v", err)
	}
	if p1 != p2 {
		t.Error("second lookup should return the cached policy pointer")
	}
	st := a.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestPolicyCacheInvalidatedByRevisionChange(t *testing.T) {
	a := New(WithPolicyCache(16))
	src := NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	sys := []PolicySource{src}
	p1, err := a.GetObjectPolicyInfo("/x", sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the source bumps its revision; cache must refresh.
	if err := src.AddPolicy("*", "neg_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	p2, err := a.GetObjectPolicyInfo("/x", sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("cache returned stale policy after source revision change")
	}
	if len(p2.System) != 2 {
		t.Errorf("refreshed policy has %d system EACLs, want 2", len(p2.System))
	}
}

func TestInvalidateCache(t *testing.T) {
	a := New(WithPolicyCache(16))
	src := NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	sys := []PolicySource{src}
	if _, err := a.GetObjectPolicyInfo("/x", sys, nil); err != nil {
		t.Fatal(err)
	}
	a.InvalidateCache()
	if _, err := a.GetObjectPolicyInfo("/x", sys, nil); err != nil {
		t.Fatal(err)
	}
	st := a.CacheStats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 after invalidate", st.Misses)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	a := New()
	src := NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	sys := []PolicySource{src}
	p1, _ := a.GetObjectPolicyInfo("/x", sys, nil)
	p2, _ := a.GetObjectPolicyInfo("/x", sys, nil)
	if p1 == p2 {
		t.Error("without WithPolicyCache every lookup should recompose")
	}
	if st := a.CacheStats(); st != (CacheStats{}) {
		t.Errorf("stats = %+v, want zero", st)
	}
	a.InvalidateCache() // must not panic without a cache
}

func TestCacheBounded(t *testing.T) {
	a := New(WithPolicyCache(4))
	src := NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	sys := []PolicySource{src}
	for i := 0; i < 100; i++ {
		if _, err := a.GetObjectPolicyInfo(fmt.Sprintf("/obj%d", i), sys, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := a.cache.len(); n > 4 {
		t.Errorf("cache grew to %d entries, bound is 4", n)
	}
	if st := a.CacheStats(); st.Evictions == 0 {
		t.Error("bounded cache under churn reported zero evictions")
	}
}

func TestPolicyCacheDefaultSize(t *testing.T) {
	c := newPolicyCache(0)
	if got := c.ways * len(c.sets); got != 1024 {
		t.Errorf("default capacity = %d (%d sets), want 1024", got, len(c.sets))
	}
	// The fixed footprint is what heap_live_mb pays on workloads that
	// never fill the cache: a pointer a set plus the counter stripes, at
	// the default size and at NewStack's. A set's slots come with its
	// first put.
	for _, c := range []*policyCache{c, newPolicyCache(4096)} {
		if fixed := unsafe.Sizeof(*c) + uintptr(len(c.sets))*unsafe.Sizeof(c.sets[0]); fixed > 10<<10 {
			t.Errorf("empty %d-entry cache occupies %d bytes, want <= 10 KiB", c.ways*len(c.sets), fixed)
		}
	}
}

// TestCacheLRUEviction verifies eviction by stamp in one set: the entry
// never hit since its put goes, the hit entry stays.
func TestCacheLRUEviction(t *testing.T) {
	a := New(WithPolicyCache(2)) // small cache: one fully associative set
	src := NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	sys := []PolicySource{src}
	for _, obj := range []string{"/a", "/b"} {
		if _, err := a.GetObjectPolicyInfo(obj, sys, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Hit /a; /b, never hit, becomes the victim.
	if _, err := a.GetObjectPolicyInfo("/a", sys, nil); err != nil {
		t.Fatal(err)
	}
	// Inserting /c must evict /b, not /a.
	if _, err := a.GetObjectPolicyInfo("/c", sys, nil); err != nil {
		t.Fatal(err)
	}
	before := a.CacheStats()
	if before.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", before.Evictions)
	}
	if _, err := a.GetObjectPolicyInfo("/a", sys, nil); err != nil {
		t.Fatal(err)
	}
	after := a.CacheStats()
	if after.Hits != before.Hits+1 {
		t.Errorf("lookup of recently used /a missed after eviction: %+v -> %+v", before, after)
	}
	if a.cache.len() != 2 {
		t.Errorf("cache holds %d entries, want 2", a.cache.len())
	}
}

// TestCacheKeepsHotSetUnderScan: a hot set looked up twice survives
// one client walking ten times the capacity in never-seen paths, since
// an entry that was never hit is evicted before any that was. The hot
// set also survives when a policy edit recomposed each of its entries
// just before the scan: a recomposed entry keeps its predecessor's
// stamp. Each set holds eight of the 4096 entries: a set that drew
// eight hot objects gives its least recently hit one up to the scan,
// and a set that drew more misses all of them on the second pass
// (never-hit entries leave first in, first out). Which sets those are
// depends on the hash seed, so the share kept is pooled over four
// caches, each seeded anew.
func TestCacheKeepsHotSetUnderScan(t *testing.T) {
	const capacity, caches = 4096, 4
	names := func(format string, n int) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = fmt.Sprintf(format, i)
		}
		return s
	}
	scan := names("/scan/%06d.html", 10*capacity)
	for _, tc := range []struct {
		hot  int
		want float64
	}{{1024, 0.95}, {2048, 0.90}} {
		hot := names("/hot/%05d.html", tc.hot)
		for _, edit := range []bool{false, true} {
			t.Run(fmt.Sprintf("hot%d/edit=%v", tc.hot, edit), func(t *testing.T) {
				var kept uint64
				for range caches {
					kept += hotSetKept(t, capacity, hot, scan, edit)
				}
				ratio := float64(kept) / float64(caches*len(hot))
				t.Logf("%d of %d hot objects survived the scan (%.3f)", kept, caches*len(hot), ratio)
				if ratio < tc.want {
					t.Errorf("hot-set hit ratio after a %d-object scan = %.3f, want >= %.2f", len(scan), ratio, tc.want)
				}
			})
		}
	}
}

// hotSetKept looks up the hot objects twice (after an edit, a third
// time, which recomposes each), then the scan's once each, and returns
// how many hot objects hit on the next pass.
func hotSetKept(t *testing.T, capacity int, hot, scan []string, edit bool) uint64 {
	src := NewMemorySource()
	if err := src.AddPolicy("*", "pos_access_right apache *"); err != nil {
		t.Fatal(err)
	}
	a, sys := New(WithPolicyCache(capacity)), []PolicySource{src}
	get := func(objects []string) {
		for _, o := range objects {
			if _, err := a.GetObjectPolicyInfo(o, sys, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	get(hot)
	get(hot)
	if edit {
		if err := src.AddPolicy("/cold/*", "neg_access_right apache *"); err != nil {
			t.Fatal(err)
		}
		before := a.CacheStats()
		get(hot)
		if after := a.CacheStats(); after.Hits != before.Hits {
			t.Fatalf("after the edit %d hot lookups hit a stale entry", after.Hits-before.Hits)
		}
	}
	get(scan)
	before := a.CacheStats()
	get(hot)
	return a.CacheStats().Hits - before.Hits
}

// TestCacheConcurrentMisses holds eight requests in the miss window of
// one object at once. Nothing coalesces them: each composes from the
// (memoizing) source, all get the same EACLs, and whichever publishes
// last is what the next lookup hits.
func TestCacheConcurrentMisses(t *testing.T) {
	const workers = 8
	a := New(WithPolicyCache(16))
	src := &countingSource{
		text:    "pos_access_right apache *",
		gate:    make(chan struct{}),
		entered: make(chan struct{}, workers), // one send per worker
	}
	sys := []PolicySource{src}

	results := make([]*Policy, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := a.GetObjectPolicyInfo("/x", sys, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = p
		}(i)
	}
	for i := 0; i < workers; i++ {
		<-src.entered
	}
	close(src.gate)
	wg.Wait()
	if t.Failed() {
		return
	}

	if n := src.calls.Load(); n > workers {
		t.Errorf("source consulted %d times for %d concurrent misses", n, workers)
	}
	for i, p := range results {
		if len(p.System) != 1 || p.System[0] != results[0].System[0] {
			t.Errorf("worker %d composed different EACLs than worker 0", i)
		}
	}
	before := a.CacheStats()
	if before.Misses != workers {
		t.Errorf("misses = %d, want %d", before.Misses, workers)
	}
	p, err := a.GetObjectPolicyInfo("/x", sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after := a.CacheStats(); after.Hits != before.Hits+1 {
		t.Errorf("lookup after the concurrent misses did not hit: %+v -> %+v", before, after)
	}
	published := false
	for _, r := range results {
		published = published || r == p
	}
	if !published {
		t.Error("cached policy is none of the eight composed ones")
	}
	if n := a.cache.len(); n != 1 {
		t.Errorf("cache holds %d entries for one object, want 1", n)
	}
}

// countingSource counts Policies calls and can block them on a gate to
// hold several requests in the miss window at once. It memoizes its
// parse, as the PolicySource contract asks.
type countingSource struct {
	text    string
	gate    chan struct{}
	entered chan struct{}
	calls   atomic.Int64

	once   sync.Once
	parsed *eacl.EACL
	err    error
}

func (c *countingSource) Policies(string) ([]*eacl.EACL, error) {
	c.calls.Add(1)
	if c.gate != nil {
		c.entered <- struct{}{}
		<-c.gate
	}
	c.once.Do(func() { c.parsed, c.err = eacl.ParseString(c.text) })
	if c.err != nil {
		return nil, c.err
	}
	return []*eacl.EACL{c.parsed}, nil
}

func (c *countingSource) Revision(string) (string, error) { return "static", nil }

// TestCacheModel drives the cache with seeded random lookups over four
// times its capacity in objects, interleaved with everything that must
// invalidate (a source mutation, a source swap, InvalidateCache) and
// with bursts of never-seen objects that fill sets with entries on
// probation, and checks every answer against an uncached API on the
// same sources.
func TestCacheModel(t *testing.T) {
	for _, capacity := range []int{8, 64} { // one set of 8 ways; 8 sets of 8 ways
		for _, seed := range []int64{1, 2, 3, 2003} {
			t.Run(fmt.Sprintf("cap%d/seed%d", capacity, seed), func(t *testing.T) {
				runCacheModel(t, capacity, seed)
			})
		}
	}
}

func runCacheModel(t *testing.T, capacity int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	newBacking := func() *MemorySource {
		m := NewMemorySource()
		if err := m.AddPolicy("*", "pos_access_right apache *"); err != nil {
			t.Fatal(err)
		}
		return m
	}
	swap := NewSwappableSource(newBacking())
	loc := NewMemorySource()
	system, local := []PolicySource{swap}, []PolicySource{loc}
	cached, uncached := New(WithPolicyCache(capacity)), New()

	objects := make([]string, 4*capacity)
	for i := range objects {
		objects[i] = fmt.Sprintf("/o/%d", i)
	}
	same := func(got, want []*eacl.EACL) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	lookup := func(step int, object string) *Policy {
		got, err := cached.GetObjectPolicyInfo(object, system, local)
		if err != nil {
			t.Fatal(err)
		}
		want, err := uncached.GetObjectPolicyInfo(object, system, local)
		if err != nil {
			t.Fatal(err)
		}
		if !same(got.System, want.System) || !same(got.Local, want.Local) || got.Mode != want.Mode {
			t.Fatalf("step %d: cached policy for %s is not the current composition", step, object)
		}
		return got
	}

	var lookups uint64
	var prev CacheStats
	unseen := len(objects) // next never-seen object, "/o/N" past objects
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(100); {
		case op < 2:
			pattern := objects[rng.Intn(len(objects))][:4] + "*" // "/o/N*": a tenth of the objects
			if err := loc.AddPolicy(pattern, "neg_access_right apache *"); err != nil {
				t.Fatal(err)
			}
		case op < 4:
			swap.Swap(newBacking()) // same revision string behind a new generation
		case op < 5:
			cached.InvalidateCache()
		case op < 6:
			for n := 1 + rng.Intn(2*capacity); n > 0; n-- {
				lookup(step, fmt.Sprintf("/o/%d", unseen))
				unseen++
				lookups++
			}
		default:
			// Zipf-like: half the lookups go to an eighth of the objects.
			object := objects[rng.Intn(len(objects))]
			if rng.Intn(2) == 0 {
				object = objects[rng.Intn(len(objects)/8)]
			}
			p := lookup(step, object)
			lookups++
			// Nothing changed since, so the same object must now hit.
			if rng.Intn(4) == 0 {
				hits := cached.CacheStats().Hits
				if again := lookup(step, object); again != p {
					t.Fatalf("step %d: immediate second lookup of %s recomposed", step, object)
				}
				lookups++
				if cached.CacheStats().Hits != hits+1 {
					t.Fatalf("step %d: immediate second lookup of %s was not counted as a hit", step, object)
				}
			}
		}
		st := cached.CacheStats()
		if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Evictions < prev.Evictions {
			t.Fatalf("step %d: counters went backwards: %+v -> %+v", step, prev, st)
		}
		if st.Hits+st.Misses != lookups {
			t.Fatalf("step %d: hits %d + misses %d != %d lookups", step, st.Hits, st.Misses, lookups)
		}
		if n := cached.cache.len(); n > capacity {
			t.Fatalf("step %d: cache holds %d entries, capacity %d", step, n, capacity)
		}
		prev = st
	}
	if prev.Hits == 0 || prev.Evictions == 0 {
		t.Errorf("model run never hit or never evicted: %+v", prev)
	}
}

// fullCache returns an API whose size-entry cache has every slot taken,
// the two source lists it was filled from, and 16x size objects to
// cycle through: looked up in order, every one of them misses.
func fullCache(t testing.TB, size int) (a *API, system, local []PolicySource, objects []string) {
	sys, loc := NewMemorySource(), NewMemorySource()
	if err := sys.AddPolicy("*", "neg_access_right apache *\npre_cond_sel_yes local\n"); err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"/d1/*", "/d2/*", "*"} {
		if err := loc.AddPolicy(pattern, "pos_access_right apache *"); err != nil {
			t.Fatal(err)
		}
	}
	a = New(WithPolicyCache(size))
	system, local = []PolicySource{sys}, []PolicySource{loc}
	objects = make([]string, 16*size)
	for i := range objects {
		objects[i] = fmt.Sprintf("/d%d/doc%05d.html", i%4, i)
	}
	for _, o := range objects {
		if _, err := a.GetObjectPolicyInfo(o, system, local); err != nil {
			t.Fatal(err)
		}
	}
	if n := a.cache.len(); n != size {
		t.Fatalf("cache holds %d entries after %d distinct lookups, want %d (full)", n, len(objects), size)
	}
	return a, system, local, objects
}

// missCycles returns lookups on a full cache of size entries that all
// miss: over every object, over those one local pattern governs and over
// those two govern. fullCache's local source governs /d1/ and /d2/ with
// two patterns, /d0/ and /d3/ with "*" alone, and each cycle is longer
// than the cache.
func missCycles(t testing.TB, size int) (a *API, all, one, two func()) {
	a, system, local, objects := fullCache(t, size)
	var ones, twos []string
	for i, o := range objects {
		if i%4 == 1 || i%4 == 2 {
			twos = append(twos, o)
		} else {
			ones = append(ones, o)
		}
	}
	cycle := func(objects []string) func() {
		next := 0
		return func() {
			if _, err := a.GetObjectPolicyInfo(objects[next%len(objects)], system, local); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	return a, cycle(objects), cycle(ones), cycle(twos)
}

// TestCacheMissConstantCost holds a miss on a full cache to a cost that
// does not grow with the capacity: the copy-on-write shard maps this
// cache replaced paid one map copy per miss, 16x more at 1024 entries
// than at 64. TestCost pins what a miss allocates.
func TestCacheMissConstantCost(t *testing.T) {
	if costpin.Race {
		t.Skip("two wall-clock timings compared at 2x do not hold under the race detector")
	}
	_, small, _, _ := missCycles(t, 64)
	_, big, _, _ := missCycles(t, 1024)
	best := bestInterleaved(7, 4000, small, big)
	t.Logf("miss at 64 entries: %v; at 1024 entries: %v", best[0], best[1])
	if best[1] > 2*best[0] {
		t.Errorf("miss costs %v at 1024 entries and %v at 64: more than 2x", best[1], best[0])
	}
}

// TestCacheSkipsOversizedObject: an object longer than maxCachedObject
// is decided like any other but never cached, since the cache would
// keep the client-sized key.
func TestCacheSkipsOversizedObject(t *testing.T) {
	a, system, local, _ := fullCache(t, 64)
	a.RegisterFunc("sel_yes", AuthorityAny, func(context.Context, eacl.Condition, *Request) Outcome {
		return MetOutcome(ClassSelector, "sel_yes")
	})
	a.InvalidateCache()
	for _, o := range []string{"/d1/" + strings.Repeat("a", 5<<10), "/d0/" + strings.Repeat("b", 5<<10)} {
		p, err := a.GetObjectPolicyInfo(o, system, local)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.System) != 1 || len(p.Local) != 1+strings.Count(o[:4], "1") || p.Object != o {
			t.Fatalf("policy for a 5 KiB object = %d system, %d local EACLs for %.8q…", len(p.System), len(p.Local), p.Object)
		}
		// The system policy's deny applies to every object.
		ans, err := a.CheckAuthorization(context.Background(), p, NewRequest("apache", "GET "+o))
		if err != nil || ans.Decision != No {
			t.Fatalf("5 KiB object decided %v, %v; want no", ans, err)
		}
	}
	if got := a.cache.len(); got != 0 {
		t.Errorf("cache holds %d entries after two 5 KiB objects, want 0", got)
	}
	if _, err := a.GetObjectPolicyInfo("/d0/short.html", system, local); err != nil {
		t.Fatal(err)
	}
	if got := a.cache.len(); got != 1 {
		t.Errorf("cache holds %d entries after a short object, want 1", got)
	}
}

// TestSharedCompositionGoesStale: the objects one source content
// governs share one composition, and a MemorySource.Add or a
// SwappableSource swap makes every one of them answer from the new
// policy on its very next lookup, which misses.
func TestSharedCompositionGoesStale(t *testing.T) {
	grant, deny := "pos_access_right apache *", "neg_access_right apache *"
	for _, edit := range []string{"MemorySource.Add", "SwappableSource.Swap"} {
		t.Run(edit, func(t *testing.T) {
			backing := NewMemorySource()
			if err := backing.AddPolicy("*", grant); err != nil {
				t.Fatal(err)
			}
			swap := NewSwappableSource(backing)
			a := New(WithPolicyCache(64))
			objects := make([]string, 32)
			for i := range objects {
				objects[i] = fmt.Sprintf("/shared/doc%02d.html", i)
			}
			decide := func(o string) (*Policy, Decision) {
				t.Helper()
				p, err := a.GetObjectPolicyInfo(o, nil, []PolicySource{swap})
				if err != nil {
					t.Fatal(err)
				}
				ans, err := a.CheckAuthorization(context.Background(), p, NewRequest("apache", "GET "+o))
				if err != nil {
					t.Fatal(err)
				}
				return p, ans.Decision
			}
			var shared *composition
			for _, o := range objects {
				p, dec := decide(o)
				if dec != Yes {
					t.Fatalf("%s before the edit: %v, want yes", o, dec)
				}
				if shared == nil {
					shared = p.composition
				} else if p.composition != shared {
					t.Fatalf("%s has a composition of its own", o)
				}
			}

			if edit == "MemorySource.Add" {
				if err := backing.AddPolicy("*", deny); err != nil {
					t.Fatal(err)
				}
			} else {
				denying := NewMemorySource()
				if err := denying.AddPolicy("*", deny); err != nil {
					t.Fatal(err)
				}
				swap.Swap(denying)
			}
			var next *composition
			for _, o := range objects {
				misses := a.CacheStats().Misses
				p, dec := decide(o)
				if dec != No {
					t.Errorf("%s after the edit: %v, want no", o, dec)
				}
				if a.CacheStats().Misses != misses+1 {
					t.Errorf("%s: the first lookup after the edit did not miss", o)
				}
				if next == nil {
					next = p.composition
				}
				if p.composition == shared || p.composition != next {
					t.Errorf("%s: not composed into the one new shared composition", o)
				}
			}
		})
	}
}

// reparsingSource parses its text on every Policies call, against the
// PolicySource contract: every lookup brings new EACL pointers.
type reparsingSource struct{ text string }

func (r reparsingSource) Policies(string) ([]*eacl.EACL, error) {
	e, err := eacl.ParseString(r.text)
	return []*eacl.EACL{e}, err
}

func (reparsingSource) Revision(string) (string, error) { return "static", nil }

// TestCompositionTableBounded: a source that hands back a fresh *EACL
// on every call makes every miss a new composition; the table resets at
// its cap instead of growing, and every answer is still right.
func TestCompositionTableBounded(t *testing.T) {
	for _, text := range []string{"pos_access_right apache *", "neg_access_right apache *"} {
		want := Yes
		if strings.HasPrefix(text, "neg") {
			want = No
		}
		a := New(WithPolicyCache(64))
		local := []PolicySource{reparsingSource{text}}
		for i := 0; i < maxCompositions+100; i++ {
			o := fmt.Sprintf("/r/%d", i)
			p, err := a.GetObjectPolicyInfo(o, nil, local)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(a.comps.m); n > maxCompositions {
				t.Fatalf("lookup %d: the table holds %d compositions, cap %d", i, n, maxCompositions)
			}
			if ans, err := a.CheckAuthorization(context.Background(), p, NewRequest("apache", "GET "+o)); err != nil || ans.Decision != want {
				t.Fatalf("%s under %q: %v, %v; want %v", o, text, ans, err, want)
			}
		}
		if n := len(a.comps.m); n != 100 {
			t.Errorf("the table holds %d compositions after its reset, want 100", n)
		}
	}
}
