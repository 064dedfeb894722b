package gaa

import (
	"hash/maphash"
	"math"
	"sync/atomic"
)

// CacheStats reports policy-cache effectiveness (experiment E4).
// Counters are monotonic for the lifetime of the API; invalidation
// does not reset them.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

const (
	// cacheWays is the associativity of a production-size cache: eight
	// slot pointers are one 64-byte line.
	cacheWays = 8
	// cacheStripes spreads the hit/miss counters, which double as the
	// recency clocks, so concurrent lookups of different sets do not
	// share a cache line.
	cacheStripes = 16
)

// policyCache caches composed policies per object, validated on every
// hit against the revisions of the contributing sources. This implements
// the paper's section 9 future work: "caching of the retrieved and
// translated policies for later reuse by subsequent requests".
//
// The cache is set-associative and lock-free in both directions. The
// object's hash picks a set of ways consecutive slots, each an atomic
// pointer to an entry that is immutable but for its recency stamp. The
// hash is seeded per cache, so a client cannot aim its paths at one
// set. A lookup compares at most ways slots; a put replaces the slot
// already holding the object, else an empty one, else the
// least-recently-stamped one, with a single atomic store — no mutex, no
// map and no copy, so a miss costs O(ways) whatever the capacity. Every
// hit stamps the entry with its stripe's lookup count (all sets of a
// stripe share the counters, so stamps within a set are comparable),
// which makes eviction least-recently-used within a set.
//
// Two racing puts on one set may pick the same victim (one composed
// policy is dropped and recomposed on its next lookup) or leave two
// entries for one object (lookups return the first; the other ages
// out). Both entries were composed from the sources and are checked
// against the sources' revisions on every hit, so neither race can
// serve a stale policy.
type policyCache struct {
	ways      int
	sets      uint32
	seed      maphash.Seed
	slots     []atomic.Pointer[cacheEntry] // sets × ways
	evictions atomic.Uint64
	stripes   [cacheStripes]cacheStripe
}

// cacheStripe counts lookups; hits + misses is its logical clock.
type cacheStripe struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [48]byte // one stripe per cache line
}

type cacheEntry struct {
	object string
	// hash is the half of the object's hash the set index did not use;
	// probes compare it first and skip the string compare on a mismatch.
	hash   uint32
	policy *Policy
	// revs holds the per-source revision strings at composition time,
	// system sources first. Validation compares them one by one — no
	// joined revision key is ever built.
	revs []string
	// nsys/nloc record how many system and local sources contributed,
	// so revisions cannot alias across source levels.
	nsys, nloc int
	// used is the stripe-clock stamp of the last hit (LRU recency).
	used atomic.Uint64
}

// cacheSet is the view of one object's set a lookup hands back, so the
// miss path publishes into the set already found.
type cacheSet struct {
	slots  []atomic.Pointer[cacheEntry]
	stripe *cacheStripe
	hash   uint32
}

func newPolicyCache(maxEntries int) *policyCache {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	// Small caches (tests, tiny deployments) are one set with exact LRU.
	c := &policyCache{ways: maxEntries, sets: 1, seed: maphash.MakeSeed()}
	if maxEntries >= 2*cacheWays {
		c.ways, c.sets = cacheWays, uint32(maxEntries/cacheWays)
	}
	c.slots = make([]atomic.Pointer[cacheEntry], int(c.sets)*c.ways)
	return c
}

// lookup returns the object's set and its entry (nil if absent).
// Lock-free; the caller validates revisions and reports the outcome
// through hit/miss.
func (c *policyCache) lookup(object string) (cacheSet, *cacheEntry) {
	sum := maphash.String(c.seed, object)
	h := uint32(sum >> 32)
	n := uint32(uint64(uint32(sum)) * uint64(c.sets) >> 32) // uniform over [0, sets)
	set := cacheSet{
		slots:  c.slots[int(n)*c.ways:][:c.ways],
		stripe: &c.stripes[n%cacheStripes],
		hash:   h,
	}
	for i := range set.slots {
		if e := set.slots[i].Load(); e != nil && e.hash == h && e.object == object {
			return set, e
		}
	}
	return set, nil
}

func (s cacheSet) hit(e *cacheEntry) {
	e.used.Store(s.stripe.hits.Add(1) + s.stripe.misses.Load())
}

func (s cacheSet) miss() {
	s.stripe.misses.Add(1)
}

// put publishes a freshly composed policy into the set its lookup
// found: over the object's own slot, else an empty one, else the
// least-recently-used one.
func (c *policyCache) put(s cacheSet, object string, revs []string, nsys, nloc int, p *Policy) {
	e := &cacheEntry{object: object, hash: s.hash, policy: p, revs: revs, nsys: nsys, nloc: nloc}
	// Stamped as of its own miss, which the stripe has already counted.
	e.used.Store(s.stripe.hits.Load() + s.stripe.misses.Load())
	empty, victim, oldest := -1, 0, uint64(math.MaxUint64)
	for i := range s.slots {
		cur := s.slots[i].Load()
		if cur == nil {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if cur.hash == e.hash && cur.object == object {
			s.slots[i].Store(e)
			return
		}
		if u := cur.used.Load(); u < oldest {
			victim, oldest = i, u
		}
	}
	if empty >= 0 {
		victim = empty
	} else {
		c.evictions.Add(1)
	}
	s.slots[victim].Store(e)
}

// invalidate drops every cached policy; counters are preserved.
func (c *policyCache) invalidate() {
	for i := range c.slots {
		c.slots[i].Store(nil)
	}
}

// snapshot sums the striped counters. Each counter is monotonic, so
// successive snapshots never move backwards.
func (c *policyCache) snapshot() CacheStats {
	st := CacheStats{Evictions: c.evictions.Load()}
	for i := range c.stripes {
		st.Hits += c.stripes[i].hits.Load()
		st.Misses += c.stripes[i].misses.Load()
	}
	return st
}

// len reports the total number of cached entries (tests, diagnostics).
func (c *policyCache) len() int {
	n := 0
	for i := range c.slots {
		if c.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// fresh reports whether the entry's recorded revisions still match the
// sources, comparing element-wise (system first, then local) with no
// key construction. It stops at the first stale source.
func (e *cacheEntry) fresh(object string, system, local []PolicySource) (bool, error) {
	for i, src := range system {
		r, err := src.Revision(object)
		if err != nil || r != e.revs[i] {
			return false, err
		}
	}
	for i, src := range local {
		r, err := src.Revision(object)
		if err != nil || r != e.revs[len(system)+i] {
			return false, err
		}
	}
	return true, nil
}
