package gaa

import (
	"hash/maphash"
	"math"
	"sync/atomic"
	"unsafe"
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
	// hitMark is set in the stamp of every entry that has been hit, so
	// any such entry outranks every entry still on probation.
	hitMark = 1 << 63
)

// policyCache caches composed policies per object, validated on every
// hit against the revisions of the contributing sources. This implements
// the paper's section 9 future work: "caching of the retrieved and
// translated policies for later reuse by subsequent requests".
//
// The cache is set-associative and lock-free in both directions. The
// object's hash picks a set of ways consecutive slots, each an atomic
// pointer to an entry that is immutable but for its recency stamp and
// its policy's rights memo. A set's slots are allocated by its first
// put, so an empty cache is one pointer a set. The hash is seeded per
// cache, so a client cannot aim its paths at one set. A lookup compares
// at most ways slots; a put replaces the slot already holding the
// object, else an empty one, else the one with the smallest stamp, with
// a single atomic store — no mutex, no map and no copy, so a miss costs
// O(ways) whatever the capacity. Stamps are the stripe's lookup count
// (all sets of a stripe share the counters, so stamps within a set are
// comparable). A put stamps its entry as of its miss; a hit stamps it
// with hitMark set, so an entry never hit is evicted first, oldest put
// first, and only then the least recently hit one. A one-time object
// thus waits on probation instead of pushing out the hot set, and a
// scan of never-seen paths evicts never-hit entries and at most one hit
// entry a set. An entry recomposed over its stale predecessor keeps
// that one's stamp, so a policy edit does not demote the hot set.
//
// Two racing puts on one set may pick the same victim (one composed
// policy is dropped and recomposed on its next lookup) or leave two
// entries for one object (lookups return the first; the other, never
// hit, is evicted first). Both entries were composed from the sources
// and are checked against the sources' revisions on every hit, so
// neither race can serve a stale policy.
type policyCache struct {
	ways int
	seed maphash.Seed
	// sets holds each set's first slot, nil until the set's first put.
	sets      []atomic.Pointer[atomic.Pointer[cacheEntry]]
	evictions atomic.Uint64
	stripes   [cacheStripes]cacheStripe
}

// cacheStripe counts lookups; hits + misses is its logical clock.
type cacheStripe struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [48]byte // one stripe per cache line
}

// cacheEntry is one cached object, in one allocation: its Policy, which
// points at the shared composition and holds the object's rights memo,
// the hash and the recency stamp.
type cacheEntry struct {
	policy Policy
	// used is the stripe-clock stamp of the put, or of the last hit
	// with hitMark set; the smallest stamp of a set is its victim.
	used atomic.Uint64
	// hash is the half of the object's hash the set index did not use;
	// probes compare it first and skip the string compare on a mismatch.
	hash uint32
}

// cacheSet is the view of one object's set a lookup hands back, so the
// miss path publishes into the set already found.
type cacheSet struct {
	slots  []atomic.Pointer[cacheEntry] // nil until the set's first put
	first  *atomic.Pointer[atomic.Pointer[cacheEntry]]
	stripe *cacheStripe
	hash   uint32
}

func newPolicyCache(maxEntries int) *policyCache {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	// Small caches (tests, tiny deployments) are one fully associative set.
	c := &policyCache{ways: maxEntries, seed: maphash.MakeSeed()}
	sets := 1
	if maxEntries >= 2*cacheWays {
		c.ways, sets = cacheWays, maxEntries/cacheWays
	}
	c.sets = make([]atomic.Pointer[atomic.Pointer[cacheEntry]], sets)
	return c
}

// slots returns the set whose first slot first holds, nil for none.
func (c *policyCache) slots(first *atomic.Pointer[cacheEntry]) []atomic.Pointer[cacheEntry] {
	if first == nil {
		return nil
	}
	return unsafe.Slice(first, c.ways)
}

// lookup returns the object's set and its entry (nil if absent).
// Lock-free; the caller validates revisions and reports the outcome
// through hit/miss.
func (c *policyCache) lookup(object string) (cacheSet, *cacheEntry) {
	sum := maphash.String(c.seed, object)
	n := uint32(uint64(uint32(sum)) * uint64(len(c.sets)) >> 32) // uniform over [0, sets)
	set := cacheSet{
		first:  &c.sets[n],
		stripe: &c.stripes[n%cacheStripes],
		hash:   uint32(sum >> 32),
	}
	set.slots = c.slots(set.first.Load())
	for i := range set.slots {
		if e := set.slots[i].Load(); e != nil && e.hash == set.hash && e.policy.Object == object {
			return set, e
		}
	}
	return set, nil
}

func (s cacheSet) hit(e *cacheEntry) {
	e.used.Store(hitMark | (s.stripe.hits.Add(1) + s.stripe.misses.Load()))
}

func (s cacheSet) miss() {
	s.stripe.misses.Add(1)
}

// put publishes a freshly composed entry into the set its lookup
// found: over the object's own slot, whose stamp it inherits, else an
// empty one, else the one with the smallest stamp: the oldest never hit,
// or if every entry has been hit, the least recently hit.
func (c *policyCache) put(s cacheSet, e *cacheEntry) {
	if s.slots == nil {
		ways := make([]atomic.Pointer[cacheEntry], c.ways)
		if !s.first.CompareAndSwap(nil, &ways[0]) {
			ways = c.slots(s.first.Load()) // another put allocated it
		}
		s.slots = ways
	}
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
		if cur.hash == e.hash && cur.policy.Object == e.policy.Object {
			e.used.Store(cur.used.Load())
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
	for i := range c.sets {
		slots := c.slots(c.sets[i].Load())
		for j := range slots {
			if slots[j].Load() != nil {
				n++
			}
		}
	}
	return n
}
