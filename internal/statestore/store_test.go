package statestore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

type blockPayload struct {
	Addr string `json:"addr"`
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func appendN(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Append("block", blockPayload{Addr: "10.0.0.1"}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Kind: "block", Data: json.RawMessage(`{"addr":"10.0.0.1"}`)},
		{Seq: 2, Kind: "threat", Data: json.RawMessage(`{"to":2}`)},
		{Seq: 3, Kind: "empty"},
	}
	var buf bytes.Buffer
	for _, r := range recs {
		frame, err := appendFrame(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	res := scanWAL(buf.Bytes())
	if res.droppedBytes != 0 || res.droppedReason != "" {
		t.Fatalf("clean WAL dropped %d bytes (%s)", res.droppedBytes, res.droppedReason)
	}
	if len(res.records) != len(recs) {
		t.Fatalf("got %d records, want %d", len(res.records), len(recs))
	}
	for i, r := range res.records {
		if r.Seq != recs[i].Seq || r.Kind != recs[i].Kind {
			t.Fatalf("record %d = %+v, want %+v", i, r, recs[i])
		}
	}
	if res.validLen != int64(buf.Len()) {
		t.Fatalf("validLen %d, want %d", res.validLen, buf.Len())
	}
}

func TestFrameLimit(t *testing.T) {
	big := Record{Seq: 1, Kind: "x", Data: json.RawMessage(`"` + strings.Repeat("a", maxRecordSize) + `"`)}
	if _, err := appendFrame(nil, big); err == nil {
		t.Fatal("oversized record encoded without error")
	}
}

func TestScanStopsAtTornFrame(t *testing.T) {
	good, err := appendFrame(nil, Record{Seq: 1, Kind: "block"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		tail   []byte
		reason string
	}{
		{"torn header", []byte{1, 2, 3}, "torn frame header"},
		{"torn payload", append(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 100), 0), 'x'), "torn frame payload"},
		{"length overflow", bytes.Repeat([]byte{0xFF}, 16), "exceeds limit"},
	} {
		data := append(append([]byte{}, good...), tc.tail...)
		res := scanWAL(data)
		if len(res.records) != 1 {
			t.Errorf("%s: replayed %d records, want 1", tc.name, len(res.records))
		}
		if res.droppedBytes != int64(len(tc.tail)) {
			t.Errorf("%s: dropped %d bytes, want %d", tc.name, res.droppedBytes, len(tc.tail))
		}
		if !strings.Contains(res.droppedReason, tc.reason) {
			t.Errorf("%s: reason %q, want substring %q", tc.name, res.droppedReason, tc.reason)
		}
	}
}

func TestOpenEmptyDirectory(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever})
	if rec := s.Recovery(); rec.SnapshotLoaded || rec.Replayed != 0 || rec.DroppedBytes != 0 {
		t.Fatalf("fresh dir recovery = %+v, want zeroes", rec)
	}
	if _, ok := s.SnapshotData(); ok {
		t.Fatal("fresh dir reported a snapshot")
	}
	appendN(t, s, 1)
}

func TestAppendAndReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways})
	for i, kind := range []string{"block", "threat", "count", "group"} {
		if err := s.Append(kind, map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen WITHOUT closing: models kill -9 (FsyncAlways means every
	// record is on stable storage already).
	re := openStore(t, dir, Options{Fsync: FsyncNever})
	tail := re.Tail()
	if len(tail) != 4 {
		t.Fatalf("replayed %d records, want 4", len(tail))
	}
	for i, rec := range tail {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
	}
	if st := re.Stats(); st.LastSeq != 4 {
		t.Fatalf("LastSeq %d, want 4", st.LastSeq)
	}
	// New appends continue the sequence past the replayed records.
	if err := re.Append("block", blockPayload{}); err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.LastSeq != 5 {
		t.Fatalf("LastSeq after append %d, want 5", st.LastSeq)
	}
}

func TestTornTailQuarantinedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways})
	appendN(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last frame: drop its final 4 bytes, as a crash mid-write
	// would.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, Options{})
	rec := re.Recovery()
	if rec.Replayed != 2 {
		t.Fatalf("replayed %d, want 2 (longest valid prefix)", rec.Replayed)
	}
	if rec.DroppedBytes == 0 || rec.DroppedReason == "" {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	if rec.QuarantineFile == "" {
		t.Fatal("torn tail not quarantined")
	}
	quarantined, err := os.ReadFile(rec.QuarantineFile)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(quarantined)) != rec.DroppedBytes {
		t.Fatalf("quarantine holds %d bytes, dropped %d", len(quarantined), rec.DroppedBytes)
	}
	// The tail must be truncated away so new appends frame cleanly.
	if err := re.Append("block", blockPayload{Addr: "10.9.9.9"}); err != nil {
		t.Fatal(err)
	}
	re.Close()

	again := openStore(t, dir, Options{})
	if got := again.Recovery(); got.Replayed != 3 || got.DroppedBytes != 0 {
		t.Fatalf("post-repair recovery = %+v, want 3 replayed, 0 dropped", got)
	}
}

func TestCorruptSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName), []byte(`{"version":1,"seq":9,"crc32":1,"state":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, Options{})
	rec := s.Recovery()
	if !rec.SnapshotQuarantined || rec.SnapshotLoaded {
		t.Fatalf("corrupt snapshot not quarantined: %+v", rec)
	}
	if _, ok := s.SnapshotData(); ok {
		t.Fatal("corrupt snapshot state surfaced")
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot file not removed")
	}
}

func TestCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways, SnapshotEvery: -1})
	state := []byte(`{"blocks":[{"addr":"10.0.0.1"}]}`)
	s.SetSnapshotFunc(func(buf []byte) ([]byte, error) { return append(buf, state...), nil })
	appendN(t, s, 5)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Snapshots != 1 {
		t.Fatalf("Snapshots = %d, want 1", st.Snapshots)
	}
	// Post-compaction appends land in the fresh WAL segment.
	appendN(t, s, 2)
	s.Close()

	re := openStore(t, dir, Options{})
	rec := re.Recovery()
	if !rec.SnapshotLoaded || rec.SnapshotSeq != 5 {
		t.Fatalf("recovery = %+v, want snapshot at seq 5", rec)
	}
	raw, ok := re.SnapshotData()
	if !ok || !bytes.Equal(raw, state) {
		t.Fatalf("snapshot state = %s, want %s", raw, state)
	}
	if rec.Replayed != 2 {
		t.Fatalf("replayed %d, want the 2 post-snapshot records", rec.Replayed)
	}
	if tail := re.Tail(); tail[0].Seq != 6 || tail[1].Seq != 7 {
		t.Fatalf("tail seqs = %d,%d want 6,7", tail[0].Seq, tail[1].Seq)
	}
}

func TestCountDrivenCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: 4})
	s.SetSnapshotFunc(func(buf []byte) ([]byte, error) { return append(buf, `{}`...), nil })
	appendN(t, s, 9)
	if st := s.Stats(); st.Snapshots < 2 {
		t.Fatalf("Snapshots = %d after 9 appends with SnapshotEvery=4, want >= 2", st.Snapshots)
	}
}

func TestDuplicateRecordsAfterCompactionRaceSkipped(t *testing.T) {
	// A crash between a compaction's snapshot write and its WAL cleanup
	// leaves records the snapshot already covers. Simulate: snapshot at
	// seq 3, WAL still holding seqs 1..5.
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways})
	appendN(t, s, 5)
	s.Close()

	state := []byte(`{"covered":true}`)
	sf := snapFile{Version: 1, Seq: 3, CRC: crc32.ChecksumIEEE(state), State: state}
	raw, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, Options{})
	rec := re.Recovery()
	if !rec.SnapshotLoaded || rec.SnapshotSeq != 3 {
		t.Fatalf("recovery = %+v, want snapshot seq 3", rec)
	}
	if rec.SkippedDuplicates != 3 {
		t.Fatalf("skipped %d duplicates, want 3 (seqs 1..3)", rec.SkippedDuplicates)
	}
	if rec.Replayed != 2 {
		t.Fatalf("replayed %d, want 2 (seqs 4,5)", rec.Replayed)
	}
}

func TestSnapshotNewerThanWAL(t *testing.T) {
	// Snapshot seq beyond every WAL record: nothing replays, and the
	// next append continues past the snapshot's sequence.
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways})
	appendN(t, s, 2)
	s.Close()

	state := []byte(`{}`)
	sf := snapFile{Version: 1, Seq: 10, CRC: crc32.ChecksumIEEE(state), State: state}
	raw, _ := json.Marshal(sf)
	if err := os.WriteFile(filepath.Join(dir, snapName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, Options{Fsync: FsyncAlways})
	rec := re.Recovery()
	if rec.Replayed != 0 || rec.SkippedDuplicates != 2 {
		t.Fatalf("recovery = %+v, want 0 replayed, 2 skipped", rec)
	}
	if err := re.Append("block", blockPayload{}); err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.LastSeq != 11 {
		t.Fatalf("LastSeq = %d, want 11 (snapshot seq 10 + 1)", st.LastSeq)
	}
}

func TestCrashMidCompactionReplaysPrevSegment(t *testing.T) {
	// A crash after the WAL rotation but before the snapshot lands
	// leaves wal.prev.log; its records must replay before wal.log's.
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncAlways})
	appendN(t, s, 3)
	s.Close()
	if err := os.Rename(filepath.Join(dir, walName), filepath.Join(dir, walPrevName)); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{Fsync: FsyncAlways})
	if rec := s2.Recovery(); rec.Replayed != 3 {
		t.Fatalf("replayed %d from rotated-out segment, want 3", rec.Replayed)
	}
	appendN(t, s2, 1)
	s2.Close()

	s3 := openStore(t, dir, Options{})
	tail := s3.Tail()
	if len(tail) != 4 {
		t.Fatalf("replayed %d across segments, want 4", len(tail))
	}
	for i, rec := range tail {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d seq %d, want %d (prev segment first)", i, rec.Seq, i+1)
		}
	}
}

func TestFsyncPolicies(t *testing.T) {
	t.Run("always counts a sync per append", func(t *testing.T) {
		s := openStore(t, t.TempDir(), Options{Fsync: FsyncAlways})
		appendN(t, s, 3)
		if st := s.Stats(); st.Syncs != 3 {
			t.Fatalf("Syncs = %d, want 3", st.Syncs)
		}
	})
	t.Run("interval syncs on the background tick", func(t *testing.T) {
		s := openStore(t, t.TempDir(), Options{Fsync: FsyncInterval})
		// The test ticks by hand: stop the background loop first.
		close(s.bgStop)
		<-s.bgDone
		s.bgStop, s.bgDone = nil, nil
		appendN(t, s, 3)
		due := s.syncDue // one fsyncInterval after Open
		s.Tick(due.Add(-time.Nanosecond))
		if st := s.Stats(); st.Syncs != 0 {
			t.Fatalf("Syncs = %d before the interval, want 0", st.Syncs)
		}
		s.Tick(due)
		if st := s.Stats(); st.Syncs != 1 {
			t.Fatalf("Syncs = %d after the interval, want 1", st.Syncs)
		}
	})
	t.Run("never leaves flushing to close", func(t *testing.T) {
		s := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
		appendN(t, s, 3)
		if st := s.Stats(); st.Syncs != 0 {
			t.Fatalf("Syncs = %d, want 0 before Close", st.Syncs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Syncs != 1 {
			t.Fatalf("Syncs = %d after Close, want 1", st.Syncs)
		}
	})
}

func TestTimedCompaction(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: -1, SnapshotInterval: time.Hour})
	s.SetSnapshotFunc(func(buf []byte) ([]byte, error) { return append(buf, `{}`...), nil })
	appendN(t, s, 2)
	s.Tick(time.Now())
	if st := s.Stats(); st.Snapshots != 0 || st.Syncs != 0 {
		t.Fatalf("before the interval: %+v", st)
	}
	s.Tick(time.Now().Add(time.Hour))
	if st := s.Stats(); st.Snapshots != 1 {
		t.Fatalf("Snapshots = %d after the interval, want 1", st.Snapshots)
	}
	// Nothing appended since: the next period has nothing to compact.
	s.Tick(time.Now().Add(2 * time.Hour))
	if st := s.Stats(); st.Snapshots != 1 {
		t.Fatalf("Snapshots = %d with nothing new, want 1", st.Snapshots)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "Interval": FsyncInterval, "": FsyncInterval, "NEVER": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() == "" {
			t.Errorf("FsyncPolicy(%v).String() empty", got)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted garbage")
	}
}

func TestAppendAfterClose(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
	s.Close()
	if err := s.Append("block", blockPayload{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func TestAppendUnencodableValue(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
	if err := s.Append("bad", func() {}); err == nil {
		t.Fatal("func value encoded without error")
	}
	if st := s.Stats(); st.Appends != 0 {
		t.Fatalf("failed append counted: %+v", st)
	}
}

// faultyFS tears exactly one write, then behaves; it lets the test pin
// the self-repair path: a short write must not orphan later records.
type faultyFS struct {
	FS
	tearNext bool
	torn     bool
}

type tearFile struct {
	File
	fs *faultyFS
}

func (f *faultyFS) OpenAppend(name string) (File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &tearFile{File: file, fs: f}, nil
}

func (f *tearFile) Write(p []byte) (int, error) {
	if f.fs.tearNext {
		f.fs.tearNext = false
		f.fs.torn = true
		n := len(p) / 2
		if n > 0 {
			f.File.Write(p[:n])
		}
		return n, errors.New("injected short write")
	}
	return f.File.Write(p)
}

func TestShortWriteSelfRepair(t *testing.T) {
	dir := t.TempDir()
	ffs := &faultyFS{FS: OS}
	s, err := Open(dir, Options{Fsync: FsyncNever, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2)

	ffs.tearNext = true
	if err := s.Append("block", blockPayload{Addr: "10.0.0.2"}); err == nil {
		t.Fatal("torn append reported success")
	}
	if !ffs.torn {
		t.Fatal("fault never fired")
	}
	if st := s.Stats(); st.AppendErrors != 1 {
		t.Fatalf("AppendErrors = %d, want 1", st.AppendErrors)
	}
	// The next append must truncate the partial frame first, so the
	// record after the fault is NOT orphaned behind a torn frame.
	if err := s.Append("block", blockPayload{Addr: "10.0.0.3"}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re := openStore(t, dir, Options{})
	rec := re.Recovery()
	if rec.DroppedBytes != 0 {
		t.Fatalf("self-repaired WAL still dropped %d bytes (%s)", rec.DroppedBytes, rec.DroppedReason)
	}
	if rec.Replayed != 3 {
		t.Fatalf("replayed %d, want 3 (2 before fault + 1 after repair)", rec.Replayed)
	}
}

// TestConcurrentAppends: appenders share one frame buffer under the
// store lock while compactions — count-driven from inside Append, and
// explicit from another goroutine — rotate the WAL around them. Run
// under -race; every frame that reaches the disk must be the record its
// appender handed in.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: 16})
	s.SetSnapshotFunc(func(buf []byte) ([]byte, error) { return append(buf, `{}`...), nil })
	const workers, per = 8, 50
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				_ = s.Append(fmt.Sprintf("kind%d", w), blockPayload{Addr: fmt.Sprintf("worker %d record %d", w, i)})
			}
		}(w)
	}
	stop := make(chan struct{})
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Compact()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		<-done
	}
	close(stop)
	<-compacted
	st := s.Stats()
	if st.Appends != workers*per {
		t.Fatalf("Appends = %d, want %d", st.Appends, workers*per)
	}
	_ = s.Append("last", blockPayload{Addr: "the tail is never empty"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything lands either in the snapshot or the WAL tail; reopening
	// must not drop bytes.
	re := openStore(t, dir, Options{})
	if rec := re.Recovery(); rec.DroppedBytes != 0 {
		t.Fatalf("concurrent appends left a torn WAL: %+v", rec)
	}
	for _, rec := range re.Tail() {
		var p blockPayload
		var w, i int
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			t.Fatalf("record %d: %v", rec.Seq, err)
		}
		if rec.Kind == "last" {
			continue
		}
		if n, _ := fmt.Sscanf(p.Addr, "worker %d record %d", &w, &i); n != 2 || rec.Kind != fmt.Sprintf("kind%d", w) {
			t.Fatalf("record %d = kind %q data %s: not what one appender wrote", rec.Seq, rec.Kind, rec.Data)
		}
	}
}
