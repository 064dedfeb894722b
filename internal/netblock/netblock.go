// Package netblock simulates the firewall-facing countermeasures of the
// paper's section 1: "blocking connections from particular parts of the
// network". The web server consults the block set before processing a
// request; response actions (rr_cond_block_ip) add entries, optionally
// with an expiry.
package netblock

import (
	"math"
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
	hosts map[string]deadline // ip -> expiry
	nets  []blockedNet
	// exact holds, by address, the deadlines that read inexact.
	exact map[string]time.Time

	journal func(Event)
}

// A deadline is a block's expiry in Unix nanoseconds: 8 bytes where a
// time.Time takes 24, so a host's map slot is 24 bytes instead of 40.
// Permanent is the largest value. A time Unix nanoseconds cannot hold —
// before 1678 or after 2262 — is inexact and kept as given in Set.exact.
// Deadlines are compared and returned as the instants they stand for,
// as when each was a time.Time, but by the wall clock alone: a block
// made in this process no longer carries the monotonic clock reading,
// so stepping the system clock moves when it expires.
type deadline int64

const (
	permanent deadline = math.MaxInt64
	inexact   deadline = math.MinInt64
)

// deadlineOf encodes expiry (zero = permanent). Whole seconds strictly
// inside ±MaxInt64 nanoseconds leave room for the fraction and keep
// clear of both sentinels; the zero time is outside.
func deadlineOf(expiry time.Time) deadline {
	if sec := expiry.Unix(); sec > math.MinInt64/int64(time.Second) && sec < math.MaxInt64/int64(time.Second) {
		return deadline(sec*int64(time.Second) + int64(expiry.Nanosecond()))
	}
	if expiry.IsZero() {
		return permanent
	}
	return inexact
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
	cidr  string
	ipnet *net.IPNet
	until deadline
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
	s := &Set{clock: time.Now, hosts: make(map[string]deadline)}
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
	s.set(addr, expiry)
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
		return s.remove(ev.Addr)
	}
	if cur, ok := s.current(ev.Addr); ok && !laterDeadline(cur, ev.Expiry) {
		return false
	}
	s.set(ev.Addr, ev.Expiry)
	return true
}

// set blocks addr until expiry, a range if addr parses as a CIDR, else a
// host. The caller holds s.mu.
func (s *Set) set(addr string, expiry time.Time) {
	d := deadlineOf(expiry)
	if d == inexact {
		if s.exact == nil {
			s.exact = make(map[string]time.Time)
		}
		s.exact[addr] = expiry
	} else {
		delete(s.exact, addr)
	}
	if strings.Contains(addr, "/") {
		if _, ipnet, err := net.ParseCIDR(addr); err == nil {
			for i := range s.nets {
				if s.nets[i].cidr == addr {
					s.nets[i].until = d
					return
				}
			}
			s.nets = append(s.nets, blockedNet{cidr: addr, ipnet: ipnet, until: d})
			return
		}
	}
	s.hosts[addr] = d
}

// current returns the expiry of addr's block (zero = permanent), if
// there is one. The caller holds s.mu.
func (s *Set) current(addr string) (time.Time, bool) {
	d, ok := s.hosts[addr]
	if !ok {
		i := slices.IndexFunc(s.nets, func(n blockedNet) bool { return n.cidr == addr })
		if i < 0 {
			return time.Time{}, false
		}
		d = s.nets[i].until
	}
	return s.expiry(addr, d, time.UTC), true
}

// expiry decodes addr's deadline d (zero = permanent) in loc; an inexact
// one is returned as given. The caller holds s.mu.
func (s *Set) expiry(addr string, d deadline, loc *time.Location) time.Time {
	switch d {
	case permanent:
		return time.Time{}
	case inexact:
		return s.exact[addr]
	}
	return time.Unix(0, int64(d)).In(loc)
}

// live reports whether addr's block with deadline d still holds at now.
// The caller holds s.mu.
func (s *Set) live(addr string, d deadline, now *reading) bool {
	return d == permanent || now.read().Before(s.expiry(addr, d, time.UTC))
}

// A reading is the set's clock, read at most once in a call and only
// when a deadline has to be compared.
type reading struct {
	clock func() time.Time // nil once read
	t     time.Time
}

func (r *reading) read() time.Time {
	if r.clock != nil {
		r.t, r.clock = r.clock(), nil
	}
	return r.t
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
	s.remove(addr)
	journal := s.journal
	s.mu.Unlock()
	if journal != nil {
		journal(Event{Unblock: true, Addr: addr})
	}
}

// remove deletes addr's block and reports whether there was one. The
// caller holds s.mu.
func (s *Set) remove(addr string) bool {
	delete(s.exact, addr)
	if _, ok := s.hosts[addr]; ok {
		delete(s.hosts, addr)
		return true
	}
	n := len(s.nets)
	s.nets = slices.DeleteFunc(s.nets, func(n blockedNet) bool { return n.cidr == addr })
	return len(s.nets) < n
}

// Blocked reports whether ip is currently blocked, expiring stale
// entries as a side effect. It runs ahead of every request, so the
// common answer — not blocked, no ranges — costs one map lookup: the
// clock is read only when a deadline has to be compared, and ip is
// parsed only when there are ranges to test it against.
func (s *Set) Blocked(ip string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := reading{clock: s.clock}
	if d, ok := s.hosts[ip]; ok {
		if s.live(ip, d, &now) {
			return true
		}
		delete(s.hosts, ip)
		delete(s.exact, ip)
	}
	if len(s.nets) == 0 {
		return false
	}
	parsed := net.ParseIP(ip)
	blocked := false
	s.nets = slices.DeleteFunc(s.nets, func(n blockedNet) bool {
		if !s.live(n.cidr, n.until, &now) {
			delete(s.exact, n.cidr)
			return true
		}
		blocked = blocked || parsed != nil && n.ipnet.Contains(parsed)
		return false
	})
	return blocked
}

// Entries returns the live blocks with their deadlines, sorted by
// address then expiry, so persistence snapshots and status output are
// deterministic. A deadline reads in the clock's location.
func (s *Set) Entries() []Entry {
	var out []Entry
	_ = s.Each(func(e Entry) error {
		out = append(out, e)
		return nil
	})
	return out
}

// Each calls f with each of Entries in turn, until f returns an error,
// and returns that error. Under the lock it only copies each live
// block's address and deadline: the sort and the entries come after, so
// a large set holds up no Blocked call.
func (s *Set) Each(f func(Entry) error) error {
	now := reading{clock: s.clock}
	loc := now.read().Location()
	type held struct {
		addr  string
		until deadline
	}
	var exact map[string]time.Time // the inexact deadlines among them
	s.mu.Lock()
	blocks := make([]held, 0, len(s.hosts)+len(s.nets))
	add := func(addr string, d deadline) {
		if !s.live(addr, d, &now) {
			return
		}
		blocks = append(blocks, held{addr, d})
		if d == inexact {
			if exact == nil {
				exact = map[string]time.Time{}
			}
			exact[addr] = s.exact[addr]
		}
	}
	for h, d := range s.hosts {
		add(h, d)
	}
	for _, n := range s.nets {
		add(n.cidr, n.until)
	}
	s.mu.Unlock()
	entry := func(b held) Entry {
		e := Entry{Addr: b.addr, Permanent: b.until == permanent}
		switch b.until {
		case permanent:
		case inexact:
			e.Expiry = exact[b.addr]
		default:
			e.Expiry = time.Unix(0, int64(b.until)).In(loc)
		}
		return e
	}
	slices.SortFunc(blocks, func(a, b held) int {
		if c := strings.Compare(a.addr, b.addr); c != 0 {
			return c
		}
		return entry(a).Expiry.Compare(entry(b).Expiry)
	})
	for _, b := range blocks {
		if err := f(entry(b)); err != nil {
			return err
		}
	}
	return nil
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
	now := reading{clock: s.clock}
	now.read()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for h, d := range s.hosts {
		if s.live(h, d, &now) {
			n++
		}
	}
	for _, bn := range s.nets {
		if s.live(bn.cidr, bn.until, &now) {
			n++
		}
	}
	return n
}
