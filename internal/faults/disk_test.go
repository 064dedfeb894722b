package faults

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gaaapi/internal/statestore"
)

func diskInjector(p float64) *Injector {
	return New(1, Spec{Disk: p})
}

func TestDiskSpecParseAndString(t *testing.T) {
	s, err := ParseSpec("disk=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if s.Disk != 0.3 || !s.Active() {
		t.Fatalf("spec = %+v", s)
	}
	round, err := ParseSpec(s.String())
	if err != nil || round != s {
		t.Fatalf("String round-trip: %q -> %+v, %v", s.String(), round, err)
	}
	if _, err := ParseSpec("disk=0.3:50ms"); err == nil {
		t.Fatal("duration suffix on disk accepted")
	}
	if _, err := ParseSpec("disk=1.5"); err == nil {
		t.Fatal("probability above 1 accepted")
	}
}

func TestDiskWriteTearsToPrefix(t *testing.T) {
	dir := t.TempDir()
	fs := diskInjector(1).FS(statestore.OS)
	f, err := fs.OpenAppend(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	payload := []byte("0123456789abcdef")
	n, err := f.Write(payload)
	if !errors.Is(err, ErrInjectedDisk) {
		t.Fatalf("Write = %d, %v, want injected disk fault", n, err)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write reported %d bytes, want prefix %d", n, len(payload)/2)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[:n]) {
		t.Fatalf("file holds %q, want the torn prefix %q", got, payload[:n])
	}
}

func TestDiskSyncAndSyncDirFail(t *testing.T) {
	dir := t.TempDir()
	in := diskInjector(1)
	fs := in.FS(statestore.OS)
	f, err := fs.Create(filepath.Join(dir, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, ErrInjectedDisk) {
		t.Fatalf("Sync = %v, want injected", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrInjectedDisk) {
		t.Fatalf("SyncDir = %v, want injected", err)
	}
	if st := in.Stats(); st.SyncErrors != 2 {
		t.Fatalf("SyncErrors = %d, want 2", st.SyncErrors)
	}
}

func TestDiskReadsNeverDisturbed(t *testing.T) {
	// Recovery must see exactly what the faulty writes left behind, so
	// the read path passes through untouched even at probability 1.
	dir := t.TempDir()
	name := filepath.Join(dir, "wal")
	if err := os.WriteFile(name, []byte("intact"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := diskInjector(1).FS(statestore.OS)
	got, err := fs.ReadFile(name)
	if err != nil || string(got) != "intact" {
		t.Fatalf("ReadFile through injector = %q, %v", got, err)
	}
}

func TestDiskInactiveSpecPassesThrough(t *testing.T) {
	dir := t.TempDir()
	in := diskInjector(0)
	fs := in.FS(statestore.OS)
	f, err := fs.OpenAppend(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := f.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); st.ShortWrites != 0 || st.SyncErrors != 0 {
		t.Fatalf("inactive injector counted faults: %+v", st)
	}
}

// TestDiskStoreSurvivesInjection closes the loop with the store itself:
// under heavy write/sync faults the store keeps accepting appends (or
// surfacing clean errors), and a clean reopen recovers a valid prefix
// with any torn tail quarantined.
func TestDiskStoreSurvivesInjection(t *testing.T) {
	dir := t.TempDir()
	in := New(7, Spec{Disk: 0.4})
	s, err := statestore.Open(dir, statestore.Options{
		Fsync: statestore.FsyncAlways,
		FS:    in.FS(statestore.OS),
	})
	if err != nil {
		t.Fatal(err)
	}
	wrote := 0
	for i := 0; i < 50; i++ {
		if err := s.Append("block", map[string]int{"i": i}); err == nil {
			wrote++
		} else if !errors.Is(err, ErrInjectedDisk) {
			t.Fatalf("append %d failed with a non-injected error: %v", i, err)
		}
	}
	s.Close()
	if st := in.Stats(); st.ShortWrites == 0 {
		t.Fatalf("injection too quiet to prove anything: %+v", st)
	}

	re, err := statestore.Open(dir, statestore.Options{})
	if err != nil {
		t.Fatalf("recovery after injected faults: %v", err)
	}
	defer re.Close()
	if got := len(re.Tail()); got < wrote/2 || got > 50 {
		t.Fatalf("recovered %d records from %d successful appends", got, wrote)
	}
}

// TestRecoveryFailedCompactionsKeepRotatedSegment: a compaction that
// rotated the WAL and then failed to write its snapshot leaves
// wal.prev.log as the only copy of its records. A second compaction
// failing the same way must not rotate over it: after a crash every
// appended record is still replayed, and the first snapshot that does
// land covers both segments and clears the rotated one.
func TestRecoveryFailedCompactionsKeepRotatedSegment(t *testing.T) {
	dir := t.TempDir()
	in := diskInjector(0)
	opts := statestore.Options{Fsync: statestore.FsyncNever, SnapshotEvery: -1, FS: in.FS(statestore.OS)}
	s, err := statestore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSnapshotFunc(func(buf []byte) ([]byte, error) { return append(buf, `{}`...), nil })
	appended := 0
	appendAndFailCompaction := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			appended++
			if err := s.Append(statestore.KindBlock, appended); err != nil {
				t.Fatal(err)
			}
		}
		// Flush while the disk is healthy, so the fault lands on the
		// snapshot write and not on the WAL flush ahead of the rotation.
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		in.spec.Disk = 1
		if err := s.Compact(); !errors.Is(err, ErrInjectedDisk) {
			t.Fatalf("Compact on a failing disk = %v, want the injected fault", err)
		}
		in.spec.Disk = 0
	}
	appendAndFailCompaction(5) // rotates 1..5 into wal.prev.log, writes no snapshot
	appendAndFailCompaction(3) // must leave wal.prev.log alone

	// Crash here: reopen a copy of the directory as it stands.
	crashed := t.TempDir()
	for _, name := range []string{"wal.log", "wal.prev.log"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := statestore.Open(crashed, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if tail := re.Tail(); len(tail) != appended || tail[0].Seq != 1 || tail[appended-1].Seq != uint64(appended) {
		t.Fatalf("after two failed compactions and a crash, replay holds %d of %d records (recovery %+v)",
			len(tail), appended, re.Recovery())
	}

	// No crash: the next healthy compaction covers everything.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.prev.log")); !os.IsNotExist(err) {
		t.Errorf("wal.prev.log after a successful compaction: %v, want it removed", err)
	}
	healed, err := statestore.Open(dir, statestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer healed.Close()
	if rec := healed.Recovery(); !rec.SnapshotLoaded || rec.SnapshotSeq != uint64(appended) || rec.Replayed != 0 {
		t.Errorf("recovery after the healthy compaction = %+v, want a snapshot at seq %d and nothing to replay", rec, appended)
	}
}
