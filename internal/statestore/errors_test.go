package statestore

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gaaapi/internal/ids"
)

var errInjected = errors.New("injected")

// brokenFS fails selected operations; everything else passes through.
type brokenFS struct {
	FS
	failCreate bool
	failRename bool
	failSync   bool
	failDirDir bool
}

type brokenFile struct {
	File
	fs *brokenFS
}

func (f *brokenFS) OpenAppend(name string) (File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &brokenFile{File: file, fs: f}, nil
}

func (f *brokenFS) Create(name string) (File, error) {
	if f.failCreate {
		return nil, errInjected
	}
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &brokenFile{File: file, fs: f}, nil
}

func (f *brokenFS) Rename(oldname, newname string) error {
	// failRename targets only the WAL rotation; the snapshot's
	// tmp-to-final rename stays healthy.
	if f.failRename && strings.HasSuffix(newname, walPrevName) {
		return errInjected
	}
	return f.FS.Rename(oldname, newname)
}

func (f *brokenFS) SyncDir(dir string) error {
	if f.failDirDir {
		return errInjected
	}
	return f.FS.SyncDir(dir)
}

func (f *brokenFile) Sync() error {
	if f.fs.failSync {
		return errInjected
	}
	return f.File.Sync()
}

func TestCompactSnapshotFuncError(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncNever, SnapshotEvery: -1})
	s.SetSnapshotFunc(func([]byte) ([]byte, error) { return nil, errInjected })
	appendN(t, s, 1)
	if err := s.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("Compact = %v, want injected error", err)
	}
	if st := s.Stats(); st.SnapshotErrors != 1 {
		t.Fatalf("SnapshotErrors = %d, want 1", st.SnapshotErrors)
	}
	// The store must keep journaling after a failed compaction.
	appendN(t, s, 1)
}

func TestCompactWithoutSnapshotFunc(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
	if err := s.Compact(); err == nil {
		t.Fatal("Compact without a snapshot func succeeded")
	}
}

func TestCompactSnapshotWriteError(t *testing.T) {
	dir := t.TempDir()
	bfs := &brokenFS{FS: OS}
	s, err := Open(dir, Options{Fsync: FsyncNever, FS: bfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetSnapshotFunc(func(buf []byte) ([]byte, error) { return append(buf, `{}`...), nil })
	appendN(t, s, 2)

	bfs.failCreate = true
	if err := s.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("Compact with failing Create = %v, want injected", err)
	}
	bfs.failCreate = false

	bfs.failSync = true
	if err := s.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("Compact with failing file Sync = %v, want injected", err)
	}
	bfs.failSync = false

	bfs.failDirDir = true
	if err := s.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("Compact with failing SyncDir = %v, want injected", err)
	}
	bfs.failDirDir = false

	if st := s.Stats(); st.SnapshotErrors != 3 {
		t.Fatalf("SnapshotErrors = %d, want 3", st.SnapshotErrors)
	}

	// After all that, a clean compaction still works and the WAL
	// contents survive a reopen.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re := openStore(t, dir, Options{})
	if rec := re.Recovery(); !rec.SnapshotLoaded {
		t.Fatalf("final compaction did not land: %+v", rec)
	}
}

func TestCompactRenameFailureKeepsSegment(t *testing.T) {
	// If the WAL rotation fails, compaction keeps appending to the old
	// segment; replay must still see every record exactly once via the
	// snapshot-seq filter.
	dir := t.TempDir()
	bfs := &brokenFS{FS: OS, failRename: true}
	s, err := Open(dir, Options{Fsync: FsyncNever, FS: bfs})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSnapshotFunc(func(buf []byte) ([]byte, error) { return append(buf, `{}`...), nil })
	appendN(t, s, 3)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact with failed rotation = %v, want success (rotation is best-effort)", err)
	}
	appendN(t, s, 2)
	s.Close()

	re := openStore(t, dir, Options{})
	rec := re.Recovery()
	if !rec.SnapshotLoaded || rec.SnapshotSeq != 3 {
		t.Fatalf("recovery = %+v, want snapshot seq 3", rec)
	}
	if rec.SkippedDuplicates != 3 || rec.Replayed != 2 {
		t.Fatalf("recovery = %+v, want 3 skipped (pre-snapshot) + 2 replayed", rec)
	}
}

// TestRecoveryRotatedSegmentSurvivesRestart: the rotated segment a
// failed compaction left behind is still the only copy of its records
// after a restart, so the next compaction — failing again here — must
// not rotate over it either.
func TestRecoveryRotatedSegmentSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	bfs := &brokenFS{FS: OS, failCreate: true}
	for _, n := range []int{3, 2} {
		s, err := Open(dir, Options{Fsync: FsyncNever, FS: bfs})
		if err != nil {
			t.Fatal(err)
		}
		s.SetSnapshotFunc(func(buf []byte) ([]byte, error) { return append(buf, `{}`...), nil })
		appendN(t, s, n)
		if err := s.Compact(); !errors.Is(err, errInjected) {
			t.Fatalf("Compact with failing Create = %v, want injected", err)
		}
		s.Close()
	}
	re := openStore(t, dir, Options{})
	if rec := re.Recovery(); rec.SnapshotLoaded || rec.Replayed != 5 {
		t.Fatalf("recovery = %+v, want all 5 records replayed from the two segments", rec)
	}
}

func TestFsyncAlwaysSurfacesSyncError(t *testing.T) {
	bfs := &brokenFS{FS: OS, failSync: true}
	s, err := Open(t.TempDir(), Options{Fsync: FsyncAlways, FS: bfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("block", blockPayload{}); !errors.Is(err, errInjected) {
		t.Fatalf("Append under failing fsync = %v, want injected", err)
	}
	if st := s.Stats(); st.SyncErrors != 1 {
		t.Fatalf("SyncErrors = %d, want 1", st.SyncErrors)
	}
}

func TestSyncErrorCounted(t *testing.T) {
	bfs := &brokenFS{FS: OS, failSync: true}
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNever, FS: bfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 1)
	if err := s.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync = %v, want injected", err)
	}
	if st := s.Stats(); st.SyncErrors != 1 {
		t.Fatalf("SyncErrors = %d, want 1", st.SyncErrors)
	}
}

func TestCounterResetReplay(t *testing.T) {
	clock := &fixedClock{now: time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)}
	dir := t.TempDir()
	c1 := components(clock.Now)
	attach(t, dir, c1)
	c1.Counters.Add("login-fail:carol")
	c1.Counters.Add("login-fail:carol")
	c1.Counters.Reset("login-fail:carol")

	c2 := components(clock.Now)
	attach(t, dir, c2)
	if got := c2.Counters.CountSince("login-fail:carol", time.Hour); got != 0 {
		t.Fatalf("reset counter replayed to %d, want 0", got)
	}
}

func TestExpiredBlockInWALTailDropped(t *testing.T) {
	clock := &fixedClock{now: time.Date(2003, 5, 1, 12, 0, 0, 0, time.UTC)}
	dir := t.TempDir()
	c1 := components(clock.Now)
	attach(t, dir, c1)
	c1.Blocks.Block("10.0.0.1", time.Minute)

	clock.now = clock.now.Add(time.Hour)
	c2 := components(clock.Now)
	_, a2 := attach(t, dir, c2)
	if sum := a2.Restored(); sum.Blocks != 0 || sum.ExpiredBlocks != 1 {
		t.Fatalf("restore summary = %+v, want 0 live / 1 expired", sum)
	}
}

func TestAttachWithNilComponents(t *testing.T) {
	dir := t.TempDir()
	c1 := components(time.Now)
	attach(t, dir, c1)
	c1.Blocks.Block("10.0.0.1", time.Hour)
	c1.Threat.Set(ids.High)
	c1.Counters.Add("k")
	c1.Groups.Add("BadGuys", "x")

	// A caller persisting only some components skips the others'
	// records without error.
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := Attach(s, Components{})
	if err != nil {
		t.Fatal(err)
	}
	if sum := a.Restored(); sum != (RestoreSummary{}) {
		t.Fatalf("nil components restored %+v", sum)
	}
}
