package netblock

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"gaaapi/internal/costpin"
)

// TestCost is the package's cost ledger (internal/costpin): the
// firewall's per-request test, the active-blocks gauge and a blocked
// host's bytes, each in testdata/cost.golden. The tests after it pin
// parts of it by name.
func TestCost(t *testing.T) {
	costpin.Check(t, slices.Concat(lenRows(t), blockedRangeRows(t), hostBytesRows(t)))
}

func TestLenZeroAllocMatchesEntries(t *testing.T) { costpin.CheckRows(t, lenRows(t)) }
func TestBlockedWithRangesZeroAlloc(t *testing.T) { costpin.CheckRows(t, blockedRangeRows(t)) }
func TestHostEntryBytes(t *testing.T)             { costpin.CheckRows(t, hostBytesRows(t)) }

// lenRows is the active-blocks gauge, which reads Len on every metrics
// scrape, so it counts what Entries would return, expired hosts and
// ranges left out.
func lenRows(t *testing.T) []costpin.Row {
	clk := newClock()
	s := NewSet(WithClock(clk.Now))
	for i := 0; i < 100; i++ {
		ttl := time.Duration(i%3) * time.Minute // 0: permanent
		s.Block(fmt.Sprintf("10.0.%d.%d", i/256, i%256), ttl)
		if i%10 == 0 {
			s.Block(fmt.Sprintf("172.%d.0.0/16", i), ttl)
		}
	}
	if got, want := s.Len(), len(s.Entries()); got != want || got != 110 {
		t.Fatalf("Len = %d, len(Entries()) = %d, want both 110", got, want)
	}
	clk.Advance(90 * time.Second) // the one-minute blocks expire, unswept
	if got, want := s.Len(), len(s.Entries()); got != want || got != 74 {
		t.Fatalf("after expiry Len = %d, len(Entries()) = %d, want both 74", got, want)
	}
	return []costpin.Row{{Name: "Len, hosts and ranges, some expired", What: "nothing: it counts live entries under the lock", Run: func() { s.Len() }}}
}

// blockedRangeRows is the test every request makes once a range is
// blocked. An IPv4 range holds an IPv4-mapped source, an IPv4-mapped
// range is the IPv4 range it maps, an IPv6 range holds no IPv4 source,
// and a range spelt with a leading zero in its length is still a range,
// listed as it was blocked.
func blockedRangeRows(t *testing.T) []costpin.Row {
	s := NewSet()
	for _, cidr := range []string{"192.168.0.0/24", "10.1.2.3/016", "2001:db8::/32", "::ffff:172.16.0.0/108", "::/0"} {
		s.Block(cidr, 0)
	}
	for _, tc := range []struct {
		ip   string
		want bool
	}{
		{"192.168.0.7", true}, {"::ffff:192.168.0.7", true}, {"192.168.1.7", false},
		{"10.1.200.200", true}, {"10.2.0.1", false},
		{"2001:db8::1", true}, {"2001:db9::1", true}, {"::", true}, {"fe80::1%eth0", false},
		{"172.31.0.1", true}, {"::ffff:172.16.0.1", true}, {"172.32.0.1", false},
		{"0.0.0.0", false}, {"::ffff:10.2.0.1", false},
		{"not-an-ip", false}, {"", false},
	} {
		if got := s.Blocked(tc.ip); got != tc.want {
			t.Errorf("Blocked(%q) = %v, want %v", tc.ip, got, tc.want)
		}
	}
	if got := s.List(); !reflect.DeepEqual(got, []string{"10.1.2.3/016", "192.168.0.0/24", "2001:db8::/32", "::/0", "::ffff:172.16.0.0/108"}) {
		t.Errorf("List = %q, want each range as it was blocked", got)
	}
	return []costpin.Row{{Name: "Blocked, a source against blocked ranges", What: "nothing: the parsed source stays on the stack", Run: func() {
		for _, ip := range []string{"10.0.0.1", "192.168.0.7", "2001:db8::1"} {
			s.Blocked(ip)
		}
	}}}
}

// hostBytesRows is what 50 000 blocked hosts keep.
func hostBytesRows(t *testing.T) []costpin.Row {
	const hosts = 50000
	addrs := make([]string, hosts)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("11.%d.%d.%d", i>>16, i>>8&0xff, i&0xff)
	}
	now := time.Date(2003, 5, 19, 12, 0, 0, 0, time.UTC)
	var blocked *Set
	t.Cleanup(func() {
		runtime.KeepAlive(addrs)
		if blocked != nil && blocked.Len() != hosts {
			t.Errorf("Len = %d, want %d", blocked.Len(), hosts)
		}
	})
	return []costpin.Row{{Name: "50 000 blocked hosts", What: "a map slot and an 8-byte deadline each, the address being the caller's: ≤ 40 B a host", MaxBytes: 40 * hosts, NoRace: true, Run: func() {
		blocked = NewSet(WithClock(func() time.Time { return now }))
		for _, a := range addrs {
			blocked.Block(a, time.Hour)
		}
	}}}
}
