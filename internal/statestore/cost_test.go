package statestore

import (
	"testing"
	"time"

	"gaaapi/internal/costpin"
	"gaaapi/internal/groups"
	"gaaapi/internal/netblock"
)

// TestCost is the package's cost ledger (internal/costpin): what a
// block or group record journaled through an attached Store with no
// mirror allocates, each count in testdata/cost.golden.
func TestCost(t *testing.T) {
	now := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: -1})
	c := Components{Blocks: netblock.NewSet(netblock.WithClock(clock)), Groups: groups.NewStore(), Clock: clock}
	if _, err := Attach(s, c); err != nil {
		t.Fatal(err)
	}
	c.Blocks.Block("10.0.0.1", time.Hour)
	c.Groups.Add("BadGuys", "10.0.0.1")
	before := s.Stats().Appends
	costpin.Check(t, []costpin.Row{
		{Name: "block record", What: "nothing: the payload is appended by hand into the store's frame buffer", Run: func() { c.Blocks.Block("10.0.0.1", time.Hour) }},
		{Name: "group removal and addition", What: "nothing, as for a block", Run: func() {
			c.Groups.Remove("BadGuys", "10.0.0.1")
			c.Groups.Add("BadGuys", "10.0.0.1")
		}},
	})
	if got, want := s.Stats().Appends-before, uint64(3*(costpin.Runs+1)); got != want {
		t.Errorf("journaled %d records, want %d", got, want)
	}
}
