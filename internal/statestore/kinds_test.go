package statestore

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/conditions"
	"gaaapi/internal/groups"
	"gaaapi/internal/ids"
	"gaaapi/internal/ids/adaptive"
	"gaaapi/internal/netblock"
)

// kindSamples holds one valid record payload per row of the kinds
// table. additive marks the kinds whose remote rule adds (the counter
// window, the score's sample delta): for those a record applied twice
// counts twice, which is why replication cursors carry exactly-once.
// A new kind needs a sample here; the laws below then cover it.
func kindSamples(now time.Time) map[string]struct {
	payload  any
	additive bool
} {
	return map[string]struct {
		payload  any
		additive bool
	}{
		KindBlock:   {netblock.Event{Addr: "10.0.0.1", Expiry: now.Add(time.Hour)}, false},
		KindThreat:  {ids.Transition{From: ids.Low, To: ids.High, At: now}, false},
		KindCounter: {conditions.CounterEvent{Key: "lockout|10.0.0.1", At: now}, true},
		KindGroup:   {groups.Event{Group: "BadGuys", Member: "10.0.0.1"}, false},
		KindScore:   {adaptive.ScoreEvent{Source: "10.0.0.1", Score: 0.5, Samples: 3, At: now}, true},
		KindProfile: {adaptive.ProfileCheckpoint{Resource: "/index.html", N: 50, MeanLen: 20, M2Len: 10, Classes: []float64{1, 2}, At: now}, false},
	}
}

func allComponents(clock func() time.Time) Components {
	c := components(clock)
	cfg := adaptive.Defaults()
	c.Scorer = adaptive.New(cfg, c.Threat, c.Blocks)
	return c
}

func TestEveryKindRow(t *testing.T) {
	clock := &fixedClock{now: time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)}
	samples := kindSamples(clock.now)

	for _, k := range kinds {
		sample, ok := samples[k.name]
		if !ok {
			t.Errorf("kind %q has no sample in kindSamples", k.name)
			continue
		}
		data, err := json.Marshal(sample.payload)
		if err != nil {
			t.Fatal(err)
		}
		rec := Record{Seq: 1, Kind: k.name, Data: data}

		// A component that is not wired makes the kind a no-op.
		bare, err := Attach(nil, Components{Clock: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bare.applyRecord(rec, false); err != nil {
			t.Errorf("%s: replay without its component: %v", k.name, err)
		}
		if changed, err := bare.ApplyRemote(rec); changed || err != nil {
			t.Errorf("%s: remote without its component = %v, %v", k.name, changed, err)
		}
		if snap, err := bare.StateSnapshot(); err != nil || string(snap) != "{}" {
			t.Errorf("%s: snapshot without components = %s, %v", k.name, snap, err)
		}

		// A malformed payload in a valid frame is an error naming the kind.
		a1, err := Attach(nil, allComponents(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
		bad := Record{Seq: 7, Kind: k.name, Data: json.RawMessage(`[]`)}
		if _, err := a1.applyRecord(bad, false); err == nil || !strings.Contains(err.Error(), k.name) {
			t.Errorf("%s: replay of a malformed payload = %v", k.name, err)
		}
		if _, err := a1.ApplyRemote(bad); err == nil || !strings.Contains(err.Error(), k.name) {
			t.Errorf("%s: remote malformed payload = %v", k.name, err)
		}
		if _, err := a1.applySnapshot([]byte(`{"`+k.section+`":7}`), false); err == nil || !strings.Contains(err.Error(), k.section) {
			t.Errorf("%s: malformed %s section = %v", k.name, k.section, err)
		}

		// Replay, snapshot, restore into fresh components: equal state.
		if _, err := a1.applyRecord(rec, false); err != nil {
			t.Fatalf("%s: replay: %v", k.name, err)
		}
		snap1, err := a1.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(snap1, []byte(`"`+k.section+`":`)) {
			t.Errorf("%s: snapshot %s lacks the %q section", k.name, snap1, k.section)
		}
		a2, err := Attach(nil, allComponents(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a2.applySnapshot(snap1, false); err != nil {
			t.Fatalf("%s: restore: %v", k.name, err)
		}
		if snap2, _ := a2.StateSnapshot(); !bytes.Equal(snap1, snap2) {
			t.Errorf("%s: state after restore differs:\n replayed %s\n restored %s", k.name, snap1, snap2)
		}

		// The same remote record twice: journaled once, unless the
		// kind's merge is additive — then it is journaled (and counted)
		// twice, which the replication cursors exist to prevent.
		store, a3 := attach(t, t.TempDir(), allComponents(clock.Now))
		for i := 0; i < 2; i++ {
			if _, err := a3.ApplyRemote(rec); err != nil {
				t.Fatalf("%s: remote: %v", k.name, err)
			}
		}
		want := uint64(1)
		if sample.additive {
			want = 2
		}
		if got := store.Stats().Appends; got != want {
			t.Errorf("%s: applied twice, journaled %d times, want %d", k.name, got, want)
		}
	}

	// Unknown kinds are skipped: a newer version may have written them.
	a, err := Attach(nil, allComponents(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	future := Record{Seq: 1, Kind: "from-the-future", Data: json.RawMessage(`[]`)}
	if _, err := a.applyRecord(future, false); err != nil {
		t.Errorf("replay of an unknown kind: %v", err)
	}
	if changed, err := a.ApplyRemote(future); changed || err != nil {
		t.Errorf("remote unknown kind = %v, %v", changed, err)
	}
	if n, err := a.applySnapshot([]byte(`{"from-the-future":7}`), true); n != 0 || err != nil {
		t.Errorf("snapshot with an unknown section = %d, %v", n, err)
	}
}
