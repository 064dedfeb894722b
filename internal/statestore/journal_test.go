package statestore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"gaaapi/internal/groups"
	"gaaapi/internal/netblock"
)

// referenceFrame is the frame encoder appendFrame replaced, kept as the
// definition of the format: header + json.Marshal(Record).
func referenceFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("record of %d bytes exceeds the frame limit", len(payload))
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderSize:], payload)
	return frame, nil
}

// FuzzAppendFrame holds the in-place frame to the marshalled one for
// every record the repo can write: any sequence number and kind, with
// the data encoding/json renders for a block event, a group event or
// any JSON value — or no data at all.
func FuzzAppendFrame(f *testing.F) {
	for _, kind := range []string{KindBlock, KindGroup, KindScore, "", `qu"ote`, `back\slash`, "<html>&", "café", "bad\xffutf8", "ctl\x01", "del\x7f"} {
		for shape := uint8(0); shape < 4; shape++ {
			f.Add(uint64(1), kind, shape, "10.0.0.1", "BadGuys", false, int64(1051790400e9))
		}
	}
	f.Add(uint64(1<<64-1), KindBlock, uint8(0), "<script>& \xff\"", "", true, int64(0))
	f.Add(uint64(0), KindProfile, uint8(2), `{"a":[1,2,{"b":"<é>"}],"c":null}`, "", false, int64(0))
	f.Add(uint64(7), KindThreat, uint8(2), ` [ 1 , "x" ] `, "", false, int64(0))

	f.Fuzz(func(t *testing.T, seq uint64, kind string, shape uint8, a, b string, flag bool, nanos int64) {
		var data []byte
		var err error
		switch shape % 4 {
		case 0:
			data, err = json.Marshal(netblock.Event{Unblock: flag, Addr: a, Expiry: time.Unix(0, nanos).UTC()})
		case 1:
			data, err = json.Marshal(groups.Event{Group: a, Member: b, Remove: flag})
		case 2:
			data, err = json.Marshal(json.RawMessage(a))
		}
		if err != nil {
			t.Skip() // not a value Append would have got past its own Marshal
		}
		rec := Record{Seq: seq, Kind: kind, Data: data}
		want, wantErr := referenceFrame(rec)
		got, err := appendFrame([]byte("kept|"), rec)
		if wantErr != nil {
			if err == nil || string(got) != "kept|" {
				t.Fatalf("appendFrame = %d bytes, %v; the reference refuses the record: %v", len(got), err, wantErr)
			}
			return
		}
		if err != nil || !bytes.Equal(got, append([]byte("kept|"), want...)) {
			t.Fatalf("appendFrame(%+v)\n got %q, %v\nwant %q", rec, got, err, want)
		}
		if wire, err := EncodeFrames([]Record{rec, rec}); err != nil || !bytes.Equal(wire, append(append([]byte(nil), want...), want...)) {
			t.Fatalf("EncodeFrames(%+v twice)\n got %q, %v\nwant %q twice", rec, wire, err, want)
		}

		var back Record
		if err := json.Unmarshal(want[frameHeaderSize:], &back); err != nil {
			t.Fatal(err)
		}
		res := scanWAL(got[len("kept|"):])
		if res.droppedBytes != 0 || len(res.records) != 1 {
			t.Fatalf("scanWAL: %d records, dropped %d bytes (%s)", len(res.records), res.droppedBytes, res.droppedReason)
		}
		if r := res.records[0]; r.Seq != back.Seq || r.Kind != back.Kind || !bytes.Equal(r.Data, back.Data) {
			t.Fatalf("scanWAL read back %+v, want %+v", r, back)
		}
	})
}

// blockAddr is the i-th of 2^24 distinct addresses.
func blockAddr(i int) string {
	return fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255)
}

// TestSnapshotEnvelopeIsMarshalOfSnapFile: the snapshot file written by
// hand is the one json.Marshal(snapFile) wrote, and recover loads it.
func TestSnapshotEnvelopeIsMarshalOfSnapFile(t *testing.T) {
	for _, blocks := range []int{0, 3, 50000} {
		c := Components{Blocks: netblock.NewSet(), Groups: groups.NewStore()}
		for i := 0; i < blocks; i++ {
			c.Blocks.Block(blockAddr(i), 0)
			if i < 3 {
				c.Groups.Add("BadGuys", "<"+blockAddr(i)+">")
			}
		}
		dir := t.TempDir()
		s := openStore(t, dir, Options{Fsync: FsyncNever})
		a, err := Attach(s, c)
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 2)
		state, err := a.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if blocks == 0 && string(state) != "{}" {
			t.Fatalf("empty state = %s", state)
		}
		want, err := json.Marshal(snapFile{Version: 1, Seq: 2, CRC: crc32.ChecksumIEEE(state), State: state})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d blocks: snapshot.json is not json.Marshal(snapFile): %d bytes, want %d\n got %.120q\nwant %.120q",
				blocks, len(got), len(want), got, want)
		}
		s.Close()

		re := openStore(t, dir, Options{})
		if raw, ok := re.SnapshotData(); !ok || !bytes.Equal(raw, state) || re.Recovery().SnapshotSeq != 2 {
			t.Fatalf("%d blocks: reopen loaded %d state bytes (ok=%v), recovery %+v", blocks, len(raw), ok, re.Recovery())
		}
		if re.snapSize != int64(len(state)) {
			t.Fatalf("%d blocks: snapSize after reopen = %d, want %d", blocks, re.snapSize, len(state))
		}
	}
}

// snapCountFS counts the bytes written to snapshot files.
type snapCountFS struct {
	FS
	bytes, last atomic.Int64
}

type snapCountFile struct {
	File
	fs *snapCountFS
}

func (f *snapCountFS) Create(name string) (File, error) {
	file, err := f.FS.Create(name)
	if err != nil || filepath.Base(name) != snapTempName {
		return file, err
	}
	f.last.Store(0)
	return &snapCountFile{File: file, fs: f}, nil
}

func (f *snapCountFile) Write(p []byte) (int, error) {
	f.fs.bytes.Add(int64(len(p)))
	f.fs.last.Add(int64(len(p)))
	return f.File.Write(p)
}

// TestRecoveryCompactionIsAmortized: count-driven compaction waits for
// the WAL to reach the size of the snapshot it would replace, so a store
// that keeps growing rewrites a constant multiple of its final state in
// total — not the whole state every SnapshotEvery records — while the
// WAL, and so replay, stays bounded by the state.
func TestRecoveryCompactionIsAmortized(t *testing.T) {
	const blocks, every = 60000, 4096
	dir := t.TempDir()
	cfs := &snapCountFS{FS: OS}
	s := openStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: every, FS: cfs})
	c := Components{Blocks: netblock.NewSet()}
	if _, err := Attach(s, c); err != nil {
		t.Fatal(err)
	}
	var recMax int64
	for i := 0; i < blocks; i++ {
		s.mu.Lock()
		before := s.walSize
		s.mu.Unlock()
		c.Blocks.Block(blockAddr(i), 0)
		s.mu.Lock()
		wal, snap := s.walSize, s.snapSize
		s.mu.Unlock()
		if wal > before {
			recMax = max(recMax, wal-before)
		}
		if bound := max(snap, every*recMax) + recMax; wal > bound {
			t.Fatalf("after %d appends the WAL holds %d bytes: more than max(last snapshot %d, %d records) + one record = %d",
				i+1, wal, snap, every, bound)
		}
	}
	st := s.Stats()
	if st.Appends != blocks || st.SnapshotErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Snapshots < 2 || st.Snapshots > 12 {
		t.Errorf("Snapshots = %d over %d appends at SnapshotEvery=%d, want 2..12 (one every %d records would be %d)",
			st.Snapshots, blocks, every, every, blocks/every)
	}
	if total, last := cfs.bytes.Load(), cfs.last.Load(); total > 4*last {
		t.Errorf("snapshots wrote %d bytes in total, more than 4x the last one (%d)", total, last)
	}
	s.Close()

	restored := Components{Blocks: netblock.NewSet()}
	re := openStore(t, dir, Options{})
	if _, err := Attach(re, restored); err != nil {
		t.Fatal(err)
	}
	if n := restored.Blocks.Len(); n != blocks {
		t.Fatalf("reopen restored %d blocks, want %d (recovery %+v)", n, blocks, re.Recovery())
	}
}

// parkFS holds the write to the first snapshot temp file created until
// release is closed, keeping one compaction between its two critical
// sections. Later temp files are not wrapped, so a second compaction let
// through runs to its end.
type parkFS struct {
	FS
	taken           atomic.Bool
	parked, release chan struct{}
}

type parkFile struct {
	File
	fs *parkFS
}

func (f *parkFS) Create(name string) (File, error) {
	file, err := f.FS.Create(name)
	if err != nil || filepath.Base(name) != snapTempName || !f.taken.CompareAndSwap(false, true) {
		return file, err
	}
	return &parkFile{File: file, fs: f}, nil
}

// Write is called once per snapshot file.
func (f *parkFile) Write(p []byte) (int, error) {
	close(f.fs.parked)
	<-f.fs.release
	return f.File.Write(p)
}

// TestRecoveryConcurrentCompactionsKeepEveryRecord: a second compaction
// issued while the first is writing its snapshot — by an append crossing
// SnapshotEvery, which skips, or by an explicit Compact, which waits —
// must not share the temp file with it: every block is there on reopen.
func TestRecoveryConcurrentCompactionsKeepEveryRecord(t *testing.T) {
	for _, tc := range []struct {
		name     string
		every    int
		explicit bool
	}{
		{"append-skips", 8, false},
		{"explicit-waits", -1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const before, during = 4, 8
			dir := t.TempDir()
			pfs := &parkFS{FS: OS, parked: make(chan struct{}), release: make(chan struct{})}
			s := openStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: tc.every, FS: pfs})
			c := Components{Blocks: netblock.NewSet()}
			if _, err := Attach(s, c); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < before; i++ {
				c.Blocks.Block(blockAddr(i), 0)
			}
			errs := make(chan error, 2)
			go func() { errs <- s.Compact() }()
			<-pfs.parked

			for i := before; i < before+during; i++ {
				c.Blocks.Block(blockAddr(i), 0)
			}
			compactions := 1
			if tc.explicit {
				compactions++
				done := make(chan struct{})
				go func() { errs <- s.Compact(); close(done) }()
				// Unserialized, the second one finishes here, well within
				// the wait; serialized, it is blocked until the release.
				select {
				case <-done:
				case <-time.After(100 * time.Millisecond):
				}
			}
			close(pfs.release)
			for i := 0; i < compactions; i++ {
				if err := <-errs; err != nil {
					t.Errorf("Compact: %v", err)
				}
			}
			if st := s.Stats(); st.SnapshotErrors != 0 || st.Snapshots != uint64(compactions) {
				t.Errorf("stats = %+v, want %d snapshots and no snapshot error", st, compactions)
			}
			s.Close()

			restored := Components{Blocks: netblock.NewSet()}
			re := openStore(t, dir, Options{})
			if _, err := Attach(re, restored); err != nil {
				t.Fatal(err)
			}
			if rec := re.Recovery(); rec.SnapshotQuarantined || !rec.SnapshotLoaded {
				t.Errorf("recovery = %+v, want the snapshot loaded", rec)
			}
			for i := 0; i < before+during; i++ {
				if !restored.Blocks.Blocked(blockAddr(i)) {
					t.Errorf("block %d (%s) lost across the reopen", i, blockAddr(i))
				}
			}
		})
	}
}

// TestRecoveryReopenCountsWALTail: a process restarted before every
// SnapshotEvery-th record — the restart loop an attacker can provoke —
// must still compact: the recovered tail counts towards the trigger.
func TestRecoveryReopenCountsWALTail(t *testing.T) {
	dir := t.TempDir()
	var snapshots uint64
	for round := 0; round < 3; round++ {
		s := openStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: 4096})
		s.SetSnapshotFunc(func() ([]byte, error) { return []byte(`{}`), nil })
		appendN(t, s, 3000)
		snapshots += s.Stats().Snapshots
		s.Close()
	}
	if snapshots == 0 {
		t.Error("9000 records over three runs at SnapshotEvery=4096 never compacted")
	}
	re := openStore(t, dir, Options{})
	if rec := re.Recovery(); !rec.SnapshotLoaded || rec.Replayed+rec.SkippedDuplicates >= 9000 {
		t.Errorf("recovery = %+v, want a snapshot and a WAL shorter than the 9000 records appended", rec)
	}
}

// TestRecoveryWALBytesIdentical writes the same 10 000 events through
// the store and through the reference rendering and compares the files.
func TestRecoveryWALBytesIdentical(t *testing.T) {
	const events, cut = 10000, 6000
	now := time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: -1, Clock: clock})
	c := Components{Blocks: netblock.NewSet(netblock.WithClock(clock)), Groups: groups.NewStore(), Clock: clock}
	a, err := Attach(s, c)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	var wantSnap []byte
	seq := uint64(0)
	journal := func(kind string, ev any) {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		seq++
		frame, err := referenceFrame(Record{Seq: seq, Kind: kind, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		want.Write(frame)
	}
	for i := 0; i < events; i++ {
		if i == cut {
			state, err := a.StateSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if wantSnap, err = json.Marshal(snapFile{Version: 1, Seq: seq, CRC: crc32.ChecksumIEEE(state), State: state}); err != nil {
				t.Fatal(err)
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			want.Reset()
		}
		switch i % 3 {
		case 0:
			c.Blocks.Block(blockAddr(i), 0)
			journal(KindBlock, netblock.Event{Addr: blockAddr(i)})
		case 1:
			c.Blocks.Block(blockAddr(i), time.Duration(i)*time.Second)
			journal(KindBlock, netblock.Event{Addr: blockAddr(i), Expiry: now.Add(time.Duration(i) * time.Second)})
		default:
			c.Groups.Add("BadGuys", blockAddr(i))
			journal(KindGroup, groups.Event{Group: "BadGuys", Member: blockAddr(i)})
		}
	}
	s.Close()
	for name, want := range map[string][]byte{walName: want.Bytes(), snapName: wantSnap} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes, the reference rendering is %d bytes", name, len(got), len(want))
		}
	}
}
