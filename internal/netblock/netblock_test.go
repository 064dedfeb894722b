package netblock

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

type clock struct{ now time.Time }

func newClock() *clock {
	return &clock{now: time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC)}
}

func (c *clock) Now() time.Time          { return c.now }
func (c *clock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func TestBlockSingleIP(t *testing.T) {
	s := NewSet()
	s.Block("10.0.0.66", 0)
	if !s.Blocked("10.0.0.66") {
		t.Error("blocked IP not reported")
	}
	if s.Blocked("10.0.0.67") {
		t.Error("unrelated IP reported blocked")
	}
	s.Unblock("10.0.0.66")
	if s.Blocked("10.0.0.66") {
		t.Error("Unblock had no effect")
	}
}

func TestBlockCIDR(t *testing.T) {
	s := NewSet()
	s.Block("192.168.0.0/24", 0)
	if !s.Blocked("192.168.0.200") {
		t.Error("address in blocked CIDR not reported")
	}
	if s.Blocked("192.168.1.1") {
		t.Error("address outside CIDR reported blocked")
	}
	s.Unblock("192.168.0.0/24")
	if s.Blocked("192.168.0.200") {
		t.Error("CIDR unblock had no effect")
	}
}

func TestBlockExpiry(t *testing.T) {
	clk := newClock()
	s := NewSet(WithClock(clk.Now))
	s.Block("10.0.0.66", 10*time.Minute)
	s.Block("172.16.0.0/16", 10*time.Minute)
	if !s.Blocked("10.0.0.66") || !s.Blocked("172.16.5.5") {
		t.Fatal("fresh blocks not effective")
	}
	clk.Advance(11 * time.Minute)
	if s.Blocked("10.0.0.66") {
		t.Error("expired host block still effective")
	}
	if s.Blocked("172.16.5.5") {
		t.Error("expired CIDR block still effective")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0 after expiry", s.Len())
	}
}

func TestPermanentBlockSurvives(t *testing.T) {
	clk := newClock()
	s := NewSet(WithClock(clk.Now))
	s.Block("10.0.0.1", 0)
	clk.Advance(1000 * time.Hour)
	if !s.Blocked("10.0.0.1") {
		t.Error("permanent block expired")
	}
}

func TestMalformedAddressBlockedOpaquely(t *testing.T) {
	s := NewSet()
	s.Block("not-an-ip", 0)
	if !s.Blocked("not-an-ip") {
		t.Error("opaque host string not blocked")
	}
	// A malformed CIDR degrades to an opaque host entry.
	s.Block("999.0.0.0/99", 0)
	if !s.Blocked("999.0.0.0/99") {
		t.Error("malformed CIDR not blocked opaquely")
	}
}

func TestList(t *testing.T) {
	s := NewSet()
	s.Block("10.0.0.2", 0)
	s.Block("10.0.0.1", 0)
	s.Block("192.168.0.0/24", 0)
	want := []string{"10.0.0.1", "10.0.0.2", "192.168.0.0/24"}
	if got := s.List(); !reflect.DeepEqual(got, want) {
		t.Errorf("List = %v, want %v", got, want)
	}
}

func TestConcurrentUse(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ip := "10.0.0." + string(rune('0'+i%10))
			s.Block(ip, time.Minute)
			s.Blocked(ip)
			s.List()
		}(i)
	}
	wg.Wait()
}

func TestEntriesDeterministicOrder(t *testing.T) {
	now := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	s := NewSet(WithClock(func() time.Time { return now }))
	s.Block("203.0.113.9", time.Hour)
	s.Block("10.0.0.0/8", 0)
	s.Block("192.168.1.1", 0)
	s.Block("172.16.0.1", 30*time.Minute)

	want := []string{"10.0.0.0/8", "172.16.0.1", "192.168.1.1", "203.0.113.9"}
	for i := 0; i < 5; i++ {
		got := s.List()
		if len(got) != len(want) {
			t.Fatalf("List() = %v, want %v", got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("List()[%d] = %q, want %q (must be sorted)", j, got[j], want[j])
			}
		}
	}

	entries := s.Entries()
	if !entries[0].Permanent || !entries[0].Expiry.IsZero() {
		t.Fatalf("permanent CIDR entry = %+v", entries[0])
	}
	if entries[1].Permanent || !entries[1].Expiry.Equal(now.Add(30*time.Minute)) {
		t.Fatalf("timed entry = %+v, want expiry %v", entries[1], now.Add(30*time.Minute))
	}
}

func TestEntriesOmitExpired(t *testing.T) {
	now := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	s := NewSet(WithClock(clock))
	s.Block("10.0.0.1", time.Minute)
	s.Block("10.0.0.0/24", time.Minute)
	s.Block("10.0.0.2", 0)
	now = now.Add(time.Hour)
	if got := s.Entries(); len(got) != 1 || got[0].Addr != "10.0.0.2" {
		t.Fatalf("Entries() after expiry = %+v, want only the permanent block", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", s.Len())
	}
}

func TestBlockUntilIdempotentReplay(t *testing.T) {
	now := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	s := NewSet(WithClock(func() time.Time { return now }))
	exp1 := now.Add(time.Hour)
	exp2 := now.Add(2 * time.Hour)
	// Replaying the same address twice must update in place, not grow.
	s.BlockUntil("10.0.0.1", exp1)
	s.BlockUntil("10.0.0.1", exp2)
	s.BlockUntil("10.0.0.0/24", exp1)
	s.BlockUntil("10.0.0.0/24", exp2)
	entries := s.Entries()
	if len(entries) != 2 {
		t.Fatalf("replayed duplicates grew the set: %+v", entries)
	}
	for _, e := range entries {
		if !e.Expiry.Equal(exp2) {
			t.Fatalf("entry %q expiry %v, want the later replay %v", e.Addr, e.Expiry, exp2)
		}
	}
}

func TestJournalReceivesMutations(t *testing.T) {
	s := NewSet()
	var events []Event
	s.SetJournal(func(ev Event) { events = append(events, ev) })
	s.Block("10.0.0.1", time.Hour)
	s.Block("10.0.0.2", 0)
	s.Unblock("10.0.0.1")
	if len(events) != 3 {
		t.Fatalf("journaled %d events, want 3", len(events))
	}
	if events[0].Unblock || events[0].Addr != "10.0.0.1" || events[0].Expiry.IsZero() {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if !events[1].Expiry.IsZero() {
		t.Fatalf("permanent block journaled with expiry: %+v", events[1])
	}
	if !events[2].Unblock {
		t.Fatalf("unblock not journaled: %+v", events[2])
	}
}

func TestApplyEventLaterDeadlineWins(t *testing.T) {
	now := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	s := NewSet(WithClock(func() time.Time { return now }))

	short := now.Add(10 * time.Minute)
	long := now.Add(24 * time.Hour)

	if !s.ApplyEvent(Event{Addr: "10.0.0.1", Expiry: short}) {
		t.Fatal("fresh block not applied")
	}
	if !s.ApplyEvent(Event{Addr: "10.0.0.1", Expiry: long}) {
		t.Fatal("longer deadline did not extend")
	}
	if s.ApplyEvent(Event{Addr: "10.0.0.1", Expiry: short}) {
		t.Fatal("shorter deadline overwrote a longer one")
	}
	if got := s.Entries()[0].Expiry; !got.Equal(long) {
		t.Fatalf("deadline = %v, want %v", got, long)
	}

	// Permanent is the latest possible deadline: it beats any timed
	// one and nothing extends it.
	if !s.ApplyEvent(Event{Addr: "10.0.0.1"}) {
		t.Fatal("permanent did not beat timed")
	}
	if s.ApplyEvent(Event{Addr: "10.0.0.1", Expiry: long}) {
		t.Fatal("timed deadline replaced permanent")
	}
	if s.ApplyEvent(Event{Addr: "10.0.0.1"}) {
		t.Fatal("re-applying permanent reported change")
	}
}

func TestApplyEventCIDRAndUnblock(t *testing.T) {
	now := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	s := NewSet(WithClock(func() time.Time { return now }))

	if !s.ApplyEvent(Event{Addr: "192.0.2.0/24", Expiry: now.Add(time.Hour)}) {
		t.Fatal("CIDR block not applied")
	}
	if !s.Blocked("192.0.2.55") {
		t.Fatal("CIDR block not effective")
	}
	if s.ApplyEvent(Event{Addr: "192.0.2.0/24", Expiry: now.Add(time.Minute)}) {
		t.Fatal("shorter CIDR deadline applied")
	}
	if !s.ApplyEvent(Event{Unblock: true, Addr: "192.0.2.0/24"}) {
		t.Fatal("CIDR unblock not applied")
	}
	if s.ApplyEvent(Event{Unblock: true, Addr: "192.0.2.0/24"}) {
		t.Fatal("unblock of absent entry reported change")
	}
	if s.Blocked("192.0.2.55") {
		t.Fatal("CIDR still blocked after unblock")
	}
}

func TestApplyEventDoesNotJournal(t *testing.T) {
	s := NewSet()
	var hook int
	s.SetJournal(func(Event) { hook++ })
	s.ApplyEvent(Event{Addr: "10.0.0.9"})
	s.ApplyEvent(Event{Unblock: true, Addr: "10.0.0.9"})
	if hook != 0 {
		t.Fatalf("ApplyEvent invoked the journal %d times; replication would loop", hook)
	}
}

// TestBlockedReadsClockOnlyForDeadlines pins the per-request miss path:
// no deadline to compare, no clock read.
func TestBlockedReadsClockOnlyForDeadlines(t *testing.T) {
	clk := newClock()
	reads := 0
	s := NewSet(WithClock(func() time.Time { reads++; return clk.Now() }))
	s.Block("10.0.0.66", 0)
	s.Block("192.168.0.0/24", 0)
	reads = 0
	for _, tc := range []struct {
		ip   string
		want bool
	}{{"10.0.0.1", false}, {"10.0.0.66", true}, {"192.168.0.7", true}, {"not-an-ip", false}} {
		if got := s.Blocked(tc.ip); got != tc.want {
			t.Errorf("Blocked(%q) = %v, want %v", tc.ip, got, tc.want)
		}
	}
	if reads != 0 {
		t.Errorf("clock read %d times with only permanent blocks, want 0", reads)
	}

	s.Block("10.0.0.67", time.Minute)
	s.Block("172.16.0.0/16", time.Minute)
	reads = 0
	if !s.Blocked("10.0.0.67") || reads != 1 {
		t.Errorf("timed host block: clock read %d times, want 1 (and blocked)", reads)
	}
	reads = 0
	if !s.Blocked("172.16.1.1") || reads != 1 {
		t.Errorf("timed range block: clock read %d times, want 1 (and blocked)", reads)
	}
	clk.Advance(2 * time.Minute)
	if s.Blocked("10.0.0.67") || s.Blocked("172.16.1.1") {
		t.Error("timed blocks outlived their deadlines")
	}
	if got := len(s.Entries()); got != 2 {
		t.Errorf("%d entries after expiry, want the 2 permanent ones", got)
	}
}

// TestEntriesOrderUnchanged: Entries feeds the persisted snapshot, so
// its order is on-disk format. The slices.SortFunc comparator must
// order exactly as the sort.Slice one it replaced: address, then
// expiry, permanent (zero time) first.
func TestEntriesOrderUnchanged(t *testing.T) {
	now := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(18))
	s := NewSet(WithClock(func() time.Time { return now }))
	for i := 0; i < 500; i++ {
		ttl := time.Duration(rng.Intn(3)) * time.Hour // 0: permanent
		s.Block(fmt.Sprintf("%d.%d.%d.%d", rng.Intn(256), rng.Intn(256), rng.Intn(4), rng.Intn(256)), ttl)
		if i%10 == 0 {
			s.Block(fmt.Sprintf("%d.%d.0.0/16", rng.Intn(256), rng.Intn(256)), ttl)
		}
	}
	// The API keeps one entry per address; the comparator's second key
	// still has to hold for a set that has two.
	for _, hours := range []int{5, 0, 3, 1} {
		n := s.nets[0]
		if n.until = deadlineOf(now.Add(time.Duration(hours) * time.Hour)); hours == 0 {
			n.until = permanent
		}
		s.nets = append(s.nets, n)
	}

	got := s.Entries()
	want := append([]Entry(nil), got...)
	rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	sort.Slice(want, func(i, j int) bool {
		if want[i].Addr != want[j].Addr {
			return want[i].Addr < want[j].Addr
		}
		return want[i].Expiry.Before(want[j].Expiry)
	})
	if len(got) < 500 {
		t.Fatalf("Entries() returned %d entries", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Entries()[%d] = %+v, the parent comparator puts %+v there", i, got[i], want[i])
		}
	}
}

// TestDeadlineEncoding: a deadline is kept in 8 bytes where Unix
// nanoseconds hold it and as given where they do not, including the
// instants whose nanoseconds are the sentinels' values. Either way
// every entry point answers as it did when each deadline was a
// time.Time: live or expired by the instant, the instant itself back
// from Entries, and later-deadline-wins between any two of them.
func TestDeadlineEncoding(t *testing.T) {
	now := time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC)
	deadlines := []struct {
		name   string
		expiry time.Time
	}{
		{"permanent", time.Time{}},
		{"epoch", time.Unix(0, 0)},
		{"1677", time.Date(1677, 6, 1, 0, 0, 0, 1, time.UTC)},
		{"MinInt64 ns", time.Unix(0, math.MinInt64)},
		{"before now", now.Add(-time.Nanosecond)},
		{"now", now},
		{"+02:00", now.Add(time.Hour).In(time.FixedZone("east", 2*3600))},
		{"MaxInt64 ns", time.Unix(0, math.MaxInt64)},
		{"2263", time.Date(2263, 1, 1, 0, 0, 0, 7, time.UTC)},
		{"9999", time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)},
	}
	// The set's clock reads 2003, or a year Unix nanoseconds cannot hold.
	for _, at := range []time.Time{now, time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)} {
		live := func(expiry time.Time) bool { return expiry.IsZero() || at.Before(expiry) }
		for _, tc := range deadlines {
			for _, addr := range []string{"10.0.0.1", "10.9.0.0/16"} {
				probe := "10.0.0.1"
				if strings.Contains(addr, "/") {
					probe = "10.9.8.7"
				}
				for _, add := range []string{"BlockUntil", "ApplyEvent"} {
					name := at.Format("2006") + "/" + tc.name + "/" + addr + "/" + add
					s := NewSet(WithClock(func() time.Time { return at }))
					if add == "BlockUntil" {
						s.BlockUntil(addr, tc.expiry)
					} else if !s.ApplyEvent(Event{Addr: addr, Expiry: tc.expiry}) {
						t.Errorf("%s: a first block reported no change", name)
					}
					want := live(tc.expiry)
					entries := s.Entries()
					if got := len(entries) == 1; got != want || s.Len() != len(entries) {
						t.Errorf("%s: Entries = %+v, Len = %d, want live %v", name, entries, s.Len(), want)
					} else if want && (entries[0].Addr != addr || entries[0].Permanent != tc.expiry.IsZero() || !entries[0].Expiry.Equal(tc.expiry)) {
						t.Errorf("%s: entry %+v, want %s until %v", name, entries[0], addr, tc.expiry)
					} else if d := deadlineOf(tc.expiry); want && d != permanent && d != inexact && entries[0].Expiry.Location() != time.UTC {
						t.Errorf("%s: entry expires in %v, want the clock's location", name, entries[0].Expiry.Location())
					}
					if got := s.Blocked(probe); got != want {
						t.Errorf("%s: Blocked = %v, want %v", name, got, want)
					}
					if s.Len() != len(entries) || len(s.exact) > len(entries) {
						t.Errorf("%s: Len %d and %d exact deadlines after Blocked, want %d and at most that", name, s.Len(), len(s.exact), len(entries))
					}
				}
			}
		}
	}
	for _, a := range deadlines {
		for _, b := range deadlines {
			s := NewSet(WithClock(func() time.Time { return now }))
			s.ApplyEvent(Event{Addr: "10.0.0.1", Expiry: a.expiry})
			later := laterDeadline(a.expiry, b.expiry)
			if got := s.ApplyEvent(Event{Addr: "10.0.0.1", Expiry: b.expiry}); got != later {
				t.Errorf("merging %s into %s reported change %v, want %v", b.name, a.name, got, later)
			}
			kept := a.expiry
			if later {
				kept = b.expiry
			}
			if got, _ := s.current("10.0.0.1"); !got.Equal(kept) {
				t.Errorf("merging %s into %s kept %v, want %v", b.name, a.name, got, kept)
			}
			if got, want := len(s.exact), deadlineOf(kept) == inexact; (got == 1) != want || got > 1 {
				t.Errorf("merging %s into %s left %d exact deadlines", b.name, a.name, got)
			}
		}
	}

	// Two peers exchanging one far-future block settle at once.
	far := time.Date(9999, 1, 1, 0, 0, 0, 1, time.UTC)
	s := NewSet(WithClock(func() time.Time { return now }))
	for i, want := range []bool{true, false, false} {
		if got := s.ApplyEvent(Event{Addr: "10.0.0.1", Expiry: far}); got != want {
			t.Errorf("far-future merge %d reported change %v, want %v", i, got, want)
		}
	}
	if s.ApplyEvent(Event{Addr: "10.0.0.1", Expiry: far.Add(-time.Nanosecond)}) {
		t.Error("a nanosecond-earlier far-future deadline replaced a later one")
	}
	s.Unblock("10.0.0.1")
	if len(s.exact) != 0 || s.Len() != 0 {
		t.Errorf("Unblock left %d exact deadlines, Len %d", len(s.exact), s.Len())
	}
}
