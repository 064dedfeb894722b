// Package netblock simulates the firewall-facing countermeasures of the
// paper's section 1: "blocking connections from particular parts of the
// network". The web server consults the block set before processing a
// request; response actions (rr_cond_block_ip) add entries, optionally
// with an expiry.
package netblock

import (
	"net"
	"slices"
	"strings"
	"sync"
	"time"
)

// Set is a concurrent-safe set of blocked addresses and CIDR ranges.
type Set struct {
	clock func() time.Time

	mu    sync.Mutex
	hosts map[string]time.Time // ip -> expiry (zero = permanent)
	nets  []blockedNet

	journal func(Event)
}

// Event describes one mutation for persistence: a block (with its
// absolute expiry; zero = permanent) or an unblock. Journal hooks
// receive events after the mutation is applied, outside the set's
// lock.
type Event struct {
	// Unblock marks a removal; otherwise the event is a block.
	Unblock bool `json:"unblock,omitempty"`
	// Addr is the blocked IP, CIDR, or opaque host string.
	Addr string `json:"addr"`
	// Expiry is the absolute deadline (zero = permanent).
	Expiry time.Time `json:"expiry,omitempty"`
}

// Entry is one live block with its remaining lifetime, for status
// endpoints and persistence.
type Entry struct {
	// Addr is the blocked IP, CIDR, or opaque host string.
	Addr string `json:"addr"`
	// Permanent marks a block with no expiry.
	Permanent bool `json:"permanent,omitempty"`
	// Expiry is the absolute deadline (zero when Permanent).
	Expiry time.Time `json:"expiry,omitempty"`
}

type blockedNet struct {
	cidr   string
	ipnet  *net.IPNet
	expiry time.Time // zero = permanent
}

// Option configures a Set.
type Option interface{ apply(*Set) }

type optionFunc func(*Set)

func (f optionFunc) apply(s *Set) { f(s) }

// WithClock overrides the time source (tests).
func WithClock(now func() time.Time) Option {
	return optionFunc(func(s *Set) { s.clock = now })
}

// NewSet returns an empty block set.
func NewSet(opts ...Option) *Set {
	s := &Set{clock: time.Now, hosts: make(map[string]time.Time)}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// SetJournal installs a hook receiving every mutation, for
// persistence. Restores (BlockUntil during recovery, before the hook
// is installed) are not journaled.
func (s *Set) SetJournal(fn func(Event)) {
	s.mu.Lock()
	s.journal = fn
	s.mu.Unlock()
}

// Block adds addr — a single IP or a CIDR range — for the given
// duration; d <= 0 blocks permanently. Unparsable addresses are blocked
// as opaque host strings so a malformed-but-repeating client still gets
// stopped.
func (s *Set) Block(addr string, d time.Duration) {
	var expiry time.Time
	if d > 0 {
		expiry = s.clock().Add(d)
	}
	s.BlockUntil(addr, expiry)
}

// BlockUntil adds addr with an absolute expiry (zero = permanent); it
// is how persistence restores blocks with their original deadlines.
// Re-blocking an already blocked address updates its expiry, so replay
// is idempotent.
func (s *Set) BlockUntil(addr string, expiry time.Time) {
	s.mu.Lock()
	applied := false
	if strings.Contains(addr, "/") {
		if _, ipnet, err := net.ParseCIDR(addr); err == nil {
			for i := range s.nets {
				if s.nets[i].cidr == addr {
					s.nets[i].expiry = expiry
					applied = true
					break
				}
			}
			if !applied {
				s.nets = append(s.nets, blockedNet{cidr: addr, ipnet: ipnet, expiry: expiry})
			}
			applied = true
		}
	}
	if !applied {
		s.hosts[addr] = expiry
	}
	journal := s.journal
	s.mu.Unlock()
	if journal != nil {
		journal(Event{Addr: addr, Expiry: expiry})
	}
}

// ApplyEvent merges a replicated mutation without journaling and
// reports whether local state changed. Blocks merge with
// later-deadline-wins (a permanent block counts as the latest possible
// deadline), so two nodes exchanging their block sets converge on the
// union with the longest protection per address instead of swapping
// deadlines forever. Unblocks remove the entry if present. The caller
// (statestore.Adaptive.ApplyRemote) journals changed state itself.
func (s *Set) ApplyEvent(ev Event) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Unblock {
		if _, ok := s.hosts[ev.Addr]; ok {
			delete(s.hosts, ev.Addr)
			return true
		}
		kept := s.nets[:0]
		changed := false
		for _, n := range s.nets {
			if n.cidr == ev.Addr {
				changed = true
				continue
			}
			kept = append(kept, n)
		}
		s.nets = kept
		return changed
	}
	if strings.Contains(ev.Addr, "/") {
		if _, ipnet, err := net.ParseCIDR(ev.Addr); err == nil {
			for i := range s.nets {
				if s.nets[i].cidr == ev.Addr {
					if !laterDeadline(s.nets[i].expiry, ev.Expiry) {
						return false
					}
					s.nets[i].expiry = ev.Expiry
					return true
				}
			}
			s.nets = append(s.nets, blockedNet{cidr: ev.Addr, ipnet: ipnet, expiry: ev.Expiry})
			return true
		}
	}
	if cur, ok := s.hosts[ev.Addr]; ok {
		if !laterDeadline(cur, ev.Expiry) {
			return false
		}
	}
	s.hosts[ev.Addr] = ev.Expiry
	return true
}

// laterDeadline reports whether candidate extends the current deadline
// (zero = permanent = latest possible).
func laterDeadline(cur, candidate time.Time) bool {
	if cur.IsZero() {
		return false // already permanent; nothing extends it
	}
	if candidate.IsZero() {
		return true // permanent beats any timed deadline
	}
	return candidate.After(cur)
}

// Unblock removes a previously blocked address or CIDR.
func (s *Set) Unblock(addr string) {
	s.mu.Lock()
	delete(s.hosts, addr)
	kept := s.nets[:0]
	for _, n := range s.nets {
		if n.cidr != addr {
			kept = append(kept, n)
		}
	}
	s.nets = kept
	journal := s.journal
	s.mu.Unlock()
	if journal != nil {
		journal(Event{Unblock: true, Addr: addr})
	}
}

// Blocked reports whether ip is currently blocked, expiring stale
// entries as a side effect. It runs ahead of every request, so the
// common answer — not blocked, no ranges — costs one map lookup: the
// clock is read only when a deadline has to be compared, and ip is
// parsed only when there are ranges to test it against.
func (s *Set) Blocked(ip string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	var now time.Time
	expired := func(expiry time.Time) bool {
		if expiry.IsZero() {
			return false // permanent
		}
		if now.IsZero() {
			now = s.clock()
		}
		return !now.Before(expiry)
	}
	if expiry, ok := s.hosts[ip]; ok {
		if !expired(expiry) {
			return true
		}
		delete(s.hosts, ip)
	}
	if len(s.nets) == 0 {
		return false
	}
	parsed := net.ParseIP(ip)
	kept := s.nets[:0]
	blocked := false
	for _, n := range s.nets {
		if expired(n.expiry) {
			continue
		}
		kept = append(kept, n)
		if parsed != nil && n.ipnet.Contains(parsed) {
			blocked = true
		}
	}
	s.nets = kept
	return blocked
}

// Entries returns the live blocks with their deadlines, sorted by
// address then expiry, so persistence snapshots and status output are
// deterministic.
func (s *Set) Entries() []Entry {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Entry
	for h, expiry := range s.hosts {
		if live(expiry, now) {
			out = append(out, Entry{Addr: h, Permanent: expiry.IsZero(), Expiry: expiry})
		}
	}
	for _, n := range s.nets {
		if live(n.expiry, now) {
			out = append(out, Entry{Addr: n.cidr, Permanent: n.expiry.IsZero(), Expiry: n.expiry})
		}
	}
	slices.SortFunc(out, func(a, b Entry) int {
		if c := strings.Compare(a.Addr, b.Addr); c != 0 {
			return c
		}
		return a.Expiry.Compare(b.Expiry)
	})
	return out
}

// List returns the currently blocked addresses and CIDRs, in the same
// deterministic order as Entries.
func (s *Set) List() []string {
	entries := s.Entries()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Addr
	}
	return out
}

// Len returns the number of live block entries, len(Entries()) without
// building and sorting them: the metrics gauge reads it every scrape.
func (s *Set) Len() int {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, expiry := range s.hosts {
		if live(expiry, now) {
			n++
		}
	}
	for _, bn := range s.nets {
		if live(bn.expiry, now) {
			n++
		}
	}
	return n
}

// live reports whether a block with this expiry (zero = permanent) still
// holds at now.
func live(expiry, now time.Time) bool {
	return expiry.IsZero() || now.Before(expiry)
}
