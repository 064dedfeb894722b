package statestore

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/netblock"
)

// fuzzTime builds the expiry FuzzJournalRecord renders: any year, any
// nanosecond and a zone chosen by zone (UTC, local, or a fixed offset of
// up to ±99 hours, past what RFC 3339 can carry).
func fuzzTime(year int, nanos int64, zone int32) time.Time {
	loc := time.UTC
	switch {
	case zone == 1:
		loc = time.Local
	case zone != 0:
		loc = time.FixedZone("fuzz", int(zone%(100*3600)))
	}
	return time.Date(year, time.January, 1, 0, 0, 0, 0, loc).Add(time.Duration(nanos))
}

// sameAsMarshal fails unless got (appended after "kept|") and err are
// the bytes and error json.Marshal(v) returns.
func sameAsMarshal(t *testing.T, v any, got []byte, err error) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%#v: error %v, json.Marshal's is %v", v, err, wantErr)
		}
		return
	}
	if err != nil || !bytes.Equal(got, append([]byte("kept|"), want...)) {
		t.Fatalf("%#v:\n got %q, %v\nwant kept|%s", v, got, err, want)
	}
}

// FuzzJournalRecord holds the block and group appenders to json.Marshal
// of the events they render, for any strings (HTML bytes, control bytes,
// invalid UTF-8, U+2028) and any time (years outside 0–9999, zones a day
// or more from UTC, every nanosecond): the same bytes, or the same error.
func FuzzJournalRecord(f *testing.F) {
	for _, s := range []string{"10.0.0.1", "<script>&", "ctl\x01\b\f\n\r\t\x7f", "bad\xffutf8\xc3", "sep\xe2\x80\xa8\xe2\x80\xa9", "café \"q\" \\", ""} {
		for _, year := range []int{-1, 0, 2003, 9999, 10000} {
			f.Add(s, "BadGuys", true, year, int64(123456789), int32(0))
			f.Add("BadGuys", s, false, year, int64(0), int32(-5*3600-1800))
		}
	}
	f.Add("a", "b", false, 9999, int64(365*24*time.Hour), int32(1))
	f.Add("a", "b", true, 2003, int64(1), int32(24*3600))
	f.Add("a", "b", true, 2003, int64(1), int32(-99*3600-59*60))

	f.Fuzz(func(t *testing.T, a, b string, flag bool, year int, nanos int64, zone int32) {
		at := fuzzTime(year%20000, nanos, zone)
		block := netblock.Event{Unblock: flag, Addr: a, Expiry: at}
		got, err := appendBlock([]byte("kept|"), block)
		sameAsMarshal(t, block, got, err)
		group := groups.Event{Group: a, Member: b, Remove: flag}
		got, err = appendGroup([]byte("kept|"), group)
		sameAsMarshal(t, group, got, err)
		for _, v := range []any{block, group} {
			got, err = appendValue([]byte("kept|"), v)
			sameAsMarshal(t, v, got, err)
		}
		entries := []netblock.Entry{{Addr: a, Permanent: flag, Expiry: at}, {Addr: b}}
		got, err = appendEntries([]byte("kept|"), func(f func(netblock.Entry) error) error {
			for _, e := range entries {
				if err := f(e); err != nil {
					return err
				}
			}
			return nil
		})
		sameAsMarshal(t, entries, got, err)
	})
}

// oldDumps is what each kinds row handed json.Marshal before the
// sections were rendered in place: the definition of every section.
var oldDumps = map[string]func(a *Adaptive) any{
	"blocks": func(a *Adaptive) any { return a.c.Blocks.Entries() },
	"threat": func(a *Adaptive) any {
		return threatState{Level: a.c.Threat.Level().String(), History: a.c.Threat.History()}
	},
	"counters": func(a *Adaptive) any { return a.c.Counters.Dump() },
	"groups": func(a *Adaptive) any {
		members := make(map[string][]string)
		for _, g := range a.c.Groups.Groups() {
			members[g] = a.c.Groups.Members(g)
		}
		return members
	},
	"scores":   func(a *Adaptive) any { return a.c.Scorer.Scores() },
	"profiles": func(a *Adaptive) any { return a.c.Scorer.Profiles() },
}

// TestSnapshotSectionsAreMarshal: for random states, empty and not,
// every section a kinds row appends is json.Marshal of the value the row
// used to return, and the snapshot is the object the old loop built from
// those: empty sections left out, the rest in table order.
func TestSnapshotSectionsAreMarshal(t *testing.T) {
	now := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	odd := []string{"10.0.0.1", "10.1.0.0/16", "<b>&", "tab\tnl\n", "bad\xff", "sep\xe2\x80\xa8", `"q"\`, "é",
		"2001:db8::7", "2001:db8::/48", "::ffff:10.0.0.1", "192.0.2.0/24"}
	zones := []*time.Location{time.UTC, time.FixedZone("east", 5*3600+1800), time.FixedZone("west", -8*3600)}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		c := allComponents(clock)
		c.Counters = conditions.NewCounters(clock)
		a, err := Attach(nil, c)
		if err != nil {
			t.Fatal(err)
		}
		for i := rng.Intn(40) * (round % 4); i > 0; i-- {
			// Whole addresses, CIDRs and opaque hosts, some outside UTF-8.
			addr := odd[rng.Intn(len(odd))]
			if rng.Intn(2) == 0 {
				addr += blockAddr(rng.Intn(64))
			}
			switch rng.Intn(5) {
			case 0:
				c.Blocks.BlockUntil(addr, time.Time{})
			case 1:
				c.Blocks.BlockUntil(addr, now.Add(time.Duration(rng.Int63n(int64(time.Hour)))).In(zones[rng.Intn(len(zones))]))
			case 4:
				// Deadlines Unix nanoseconds cannot hold: one long past,
				// one live.
				year := []int{1500, 2300}[rng.Intn(2)]
				c.Blocks.BlockUntil(addr, time.Date(year, 3, 4, 5, 6, 7, 8, zones[rng.Intn(len(zones))]))
			case 2:
				c.Groups.Add(odd[rng.Intn(len(odd))], addr)
			default:
				c.Groups.Remove(odd[rng.Intn(len(odd))], addr)
			}
		}
		if round%2 == 1 {
			c.Groups.Add("BadGuys", "gone")
			c.Groups.Remove("BadGuys", "gone")
			c.Threat.Set(ids.High)
			c.Counters.Add("lockout|10.0.0.1")
			c.Scorer.ApplyScore(adaptive.ScoreEvent{Source: "10.0.0.1", Score: 0.5, Samples: 3, At: now})
		}

		want := []byte{'{'}
		for _, k := range kinds {
			old, err := json.Marshal(oldDumps[k.section](a))
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.dump(a, []byte("kept|"))
			if err != nil || string(got) != "kept|"+string(old) {
				t.Errorf("round %d: %s section\n got %q, %v\nwant kept|%s", round, k.section, got, err, old)
			}
			if s := string(old); s == "null" || s == "[]" || s == "{}" {
				continue
			}
			if len(want) > 1 {
				want = append(want, ',')
			}
			want = append(append(want, `"`+k.section+`":`...), old...)
		}
		want = append(want, '}')
		if got, err := a.StateSnapshot(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("round %d: StateSnapshot\n got %s, %v\nwant %s", round, got, err, want)
		}
	}
}
