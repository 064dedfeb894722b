// Package statestore is a crash-safe store for the server's adaptive
// state — the blacklists, network blocks, threat level, and failure
// counters that detection feeds back into authorization. The paper's
// feedback loop only tightens future decisions if that state survives
// the restart an attacker can provoke; statestore makes it durable with
// an append-only write-ahead log (length+CRC32-framed records) plus
// periodic compacting snapshots, and recovers by replaying the longest
// valid WAL prefix, quarantining a torn or corrupt tail instead of
// refusing to start.
package statestore

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// File names inside the state directory.
const (
	walName      = "wal.log"
	walPrevName  = "wal.prev.log"
	snapName     = "snapshot.json"
	snapTempName = "snapshot.json.tmp"
	quarName     = "quarantine.bin"
)

// FsyncPolicy controls when appended records are forced to disk.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: no acknowledged mutation is
	// ever lost, at a per-write latency cost.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background tick every fsyncInterval: a
	// crash loses at most one interval of mutations.
	FsyncInterval
	// FsyncNever leaves flushing to the OS page cache: a process crash
	// loses nothing, a power loss may lose everything since the last
	// snapshot.
	FsyncNever
)

// String returns "always", "interval" or "never".
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy converts "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("statestore: unknown fsync policy %q (want always|interval|never)", s)
	}
}

// Options configures a Store.
type Options struct {
	// Fsync is the WAL flush policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SnapshotEvery compacts the WAL into a snapshot after at least this
	// many appended records, and not before the WAL has reached the size
	// of the last snapshot (default 4096; negative disables count-driven
	// compaction).
	SnapshotEvery int
	// SnapshotInterval additionally compacts on a timer (0: off).
	SnapshotInterval time.Duration
	// FS overrides the filesystem (fault injection); default OS.
	FS FS
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// fsyncInterval is the background flush period under FsyncInterval.
const fsyncInterval = 100 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.FS == nil {
		o.FS = OS
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// RecoveryReport describes what Open restored and what it had to drop.
type RecoveryReport struct {
	// SnapshotLoaded reports whether a valid snapshot was applied.
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// SnapshotSeq is the sequence number the snapshot covers.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotQuarantined reports that a snapshot file existed but was
	// corrupt and set aside.
	SnapshotQuarantined bool `json:"snapshot_quarantined,omitempty"`
	// Replayed is the number of WAL records recovered past the snapshot.
	Replayed int `json:"replayed"`
	// SkippedDuplicates counts WAL records already covered by the
	// snapshot (seq <= SnapshotSeq), e.g. after a crash between a
	// compaction's snapshot write and its WAL cleanup.
	SkippedDuplicates int `json:"skipped_duplicates,omitempty"`
	// DroppedBytes is the size of the torn/corrupt WAL tail that was
	// quarantined rather than replayed.
	DroppedBytes int64 `json:"dropped_bytes,omitempty"`
	// DroppedReason explains why the tail was rejected.
	DroppedReason string `json:"dropped_reason,omitempty"`
	// QuarantineFile is where the rejected bytes were preserved for
	// forensics ("" when nothing was dropped).
	QuarantineFile string `json:"quarantine_file,omitempty"`
}

// Stats are the store's operation counters.
type Stats struct {
	// Appends counts journaled records this process wrote.
	Appends uint64 `json:"appends"`
	// AppendErrors counts appends that failed (disk faults).
	AppendErrors uint64 `json:"append_errors"`
	// Snapshots counts compactions taken this process.
	Snapshots uint64 `json:"snapshots"`
	// SnapshotErrors counts failed compactions.
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// Syncs counts explicit WAL fsyncs.
	Syncs uint64 `json:"syncs"`
	// SyncErrors counts failed fsyncs.
	SyncErrors uint64 `json:"sync_errors"`
	// LastSeq is the highest record sequence number issued.
	LastSeq uint64 `json:"last_seq"`
}

// snapFile is the on-disk snapshot format: the adaptive state bytes
// plus the WAL sequence they cover, integrity-checked with a CRC.
type snapFile struct {
	Version int             `json:"version"`
	Seq     uint64          `json:"seq"`
	CRC     uint32          `json:"crc32"`
	State   json.RawMessage `json:"state"`
}

// Store is the crash-safe adaptive-state store. Safe for concurrent
// use. One Store owns its directory; run one per process.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	wal      File
	nextSeq  uint64
	sinceSnp int  // records since last snapshot
	dirty    bool // unsynced appends (interval/never policies)
	closed   bool
	stats    Stats
	// walSize is the byte length of the valid WAL prefix; a torn
	// (short) write is repaired by truncating back to it before the
	// next record goes in, so one disk fault cannot orphan every
	// record appended after it.
	walSize    int64
	needsTrunc bool
	// snapSize is the length of the last snapshot's state, written or
	// loaded: count-driven compaction waits for the WAL to grow as long,
	// so a snapshot rewrites no more bytes than the log it replaces.
	snapSize int64
	// prevPending: wal.prev.log holds records no snapshot covers yet (its
	// compaction failed, or is in flight); rotating would overwrite them.
	prevPending bool
	frame       []byte // Append's encode buffer, reused under mu

	recovery RecoveryReport
	snapshot json.RawMessage // state restored at Open (nil: none)
	tail     []Record        // records past the snapshot, for replay

	// snapshotFunc gathers the current adaptive state for compaction;
	// set via SetSnapshotFunc before compaction can run.
	snapshotFunc func([]byte) ([]byte, error)

	// compactMu admits one compaction at a time: two in flight would
	// both write snapshot.json.tmp, and the later rename could publish a
	// torn or older snapshot after wal.prev.log was removed.
	compactMu sync.Mutex

	// syncDue and snapDue are the instants Tick next fsyncs and
	// compacts at, on the wall clock the background loop ticks by.
	syncDue, snapDue time.Time
	bgStop           chan struct{}
	bgDone           chan struct{}
}

// Open recovers the state directory and returns a store ready for
// appends. A missing directory is created; a torn WAL tail or corrupt
// snapshot is quarantined and reported via Recovery(), never an error.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("statestore: create %s: %w", dir, err)
	}
	s := &Store{dir: dir, opts: opts}
	if err := s.recover(); err != nil {
		return nil, err
	}
	wal, err := opts.FS.OpenAppend(s.path(walName))
	if err != nil {
		return nil, fmt.Errorf("statestore: open WAL: %w", err)
	}
	s.wal = wal
	if opts.Fsync == FsyncInterval || opts.SnapshotInterval > 0 {
		now := time.Now()
		s.syncDue, s.snapDue = now.Add(fsyncInterval), now.Add(opts.SnapshotInterval)
		s.bgStop = make(chan struct{})
		s.bgDone = make(chan struct{})
		go s.background()
	}
	return s, nil
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// recover loads the snapshot and replays the WAL(s), truncating the
// longest valid prefix boundary and quarantining whatever follows.
func (s *Store) recover() error {
	fs := s.opts.FS

	// Snapshot: validate JSON shape and state CRC; quarantine on
	// mismatch and continue from the WAL alone.
	if raw, err := fs.ReadFile(s.path(snapName)); err == nil && len(raw) > 0 {
		var sf snapFile
		if jsonErr := json.Unmarshal(raw, &sf); jsonErr != nil || sf.Version != 1 || crc32.ChecksumIEEE(sf.State) != sf.CRC {
			s.recovery.SnapshotQuarantined = true
			s.quarantine(raw, "corrupt snapshot")
			_ = fs.Remove(s.path(snapName))
		} else {
			s.recovery.SnapshotLoaded = true
			s.recovery.SnapshotSeq = sf.Seq
			s.snapshot = sf.State
			s.snapSize = int64(len(sf.State))
			s.nextSeq = sf.Seq
		}
	}

	// WAL: a crash mid-compaction can leave the rotated-out previous
	// segment behind; its records are older, so replay it first. The
	// snapshot-seq filter drops whatever the snapshot already covers.
	var torn []byte
	for _, name := range []string{walPrevName, walName} {
		data, err := fs.ReadFile(s.path(name))
		if err != nil || len(data) == 0 {
			continue
		}
		res := scanWAL(data)
		if res.droppedBytes > 0 {
			s.recovery.DroppedBytes += res.droppedBytes
			s.recovery.DroppedReason = res.droppedReason
			torn = append(torn, data[res.validLen:]...)
			if err := fs.Truncate(s.path(name), res.validLen); err != nil {
				return fmt.Errorf("statestore: truncate torn tail of %s: %w", name, err)
			}
		}
		if name == walName {
			s.walSize = res.validLen
		} else {
			s.prevPending = true
		}
		for _, rec := range res.records {
			if rec.Seq <= s.recovery.SnapshotSeq && s.recovery.SnapshotLoaded {
				s.recovery.SkippedDuplicates++
				continue
			}
			s.tail = append(s.tail, rec)
			if rec.Seq > s.nextSeq {
				s.nextSeq = rec.Seq
			}
		}
	}
	s.recovery.Replayed = len(s.tail)
	// A restart does not reset the count, or a process restarted before
	// every SnapshotEvery-th record would never compact.
	s.sinceSnp = len(s.tail)
	if len(torn) > 0 {
		s.quarantine(torn, s.recovery.DroppedReason)
	}
	s.stats.LastSeq = s.nextSeq
	return nil
}

// quarantine preserves rejected bytes beside the store for forensics;
// best-effort (a failure to quarantine must not block recovery).
func (s *Store) quarantine(data []byte, reason string) {
	name := s.path(quarName)
	f, err := s.opts.FS.Create(name)
	if err != nil {
		return
	}
	defer f.Close()
	if _, err := f.Write(data); err == nil {
		s.recovery.QuarantineFile = name
		if s.recovery.DroppedReason == "" {
			s.recovery.DroppedReason = reason
		}
	}
}

// Recovery returns what Open restored and dropped.
func (s *Store) Recovery() RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// SnapshotData returns the state bytes of the recovered snapshot, if
// one was loaded.
func (s *Store) SnapshotData() (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshot, s.snapshot != nil
}

// Tail returns the recovered WAL records newer than the snapshot, in
// append order. The caller replays them over the snapshot state.
func (s *Store) Tail() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tail
}

// Stats returns the operation counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SetSnapshotFunc installs the state-gathering callback compaction
// uses: it appends the state to the buffer it is given and returns the
// result. Until it is set, compaction is disabled.
func (s *Store) SetSnapshotFunc(fn func(buf []byte) ([]byte, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotFunc = fn
}

// ErrClosed is returned by appends to a closed store.
var ErrClosed = errors.New("statestore: store closed")

// Append journals one mutation. v is JSON-encoded as the record data.
// Under FsyncAlways the record is on stable storage when Append
// returns.
func (s *Store) Append(kind string, v any) error {
	return s.append(kind, func(dst []byte) ([]byte, error) { return appendValue(dst, v) })
}

// append journals one record, its data rendered under s.mu into the
// reused frame buffer. A record that does not encode takes no sequence.
func (s *Store) append(kind string, data payload) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// Repair a previously torn append before writing anything new:
	// bytes past walSize are a partial frame that would orphan every
	// record appended after them.
	if s.needsTrunc {
		if err := s.opts.FS.Truncate(s.path(walName), s.walSize); err != nil {
			s.stats.AppendErrors++
			s.mu.Unlock()
			return fmt.Errorf("statestore: repair torn WAL tail: %w", err)
		}
		s.needsTrunc = false
	}
	frame, err := appendRecord(s.frame[:0], s.nextSeq+1, kind, data)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("statestore: encode %s: %w", kind, err)
	}
	s.frame = frame[:0]
	s.nextSeq++
	n, err := s.wal.Write(frame)
	if err != nil {
		if n > 0 {
			// Short write: mark the tail for truncation.
			s.needsTrunc = true
		}
		s.stats.AppendErrors++
		s.mu.Unlock()
		return fmt.Errorf("statestore: append %s: %w", kind, err)
	}
	s.walSize += int64(len(frame))
	s.stats.Appends++
	s.stats.LastSeq = s.nextSeq
	s.sinceSnp++
	s.dirty = true
	if s.opts.Fsync == FsyncAlways {
		s.stats.Syncs++
		if err := s.wal.Sync(); err != nil {
			s.stats.SyncErrors++
			s.mu.Unlock()
			return fmt.Errorf("statestore: fsync: %w", err)
		}
		s.dirty = false
	}
	needSnap := s.opts.SnapshotEvery > 0 && s.sinceSnp >= s.opts.SnapshotEvery &&
		s.walSize >= s.snapSize && s.snapshotFunc != nil
	s.mu.Unlock()

	// Compact outside the store lock: the snapshot func reads the live
	// components, whose mutators may themselves be appending. When a
	// compaction is already in flight, skip: this record sits in the live
	// WAL and the next compaction covers it.
	if needSnap && s.compactMu.TryLock() {
		_ = s.compact()
		s.compactMu.Unlock()
	}
	return nil
}

// Sync forces buffered WAL records to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.closed || !s.dirty {
		return nil
	}
	s.stats.Syncs++
	if err := s.wal.Sync(); err != nil {
		s.stats.SyncErrors++
		return err
	}
	s.dirty = false
	return nil
}

// Compact folds the live state into a fresh snapshot and resets the
// WAL. Mutations racing with the state gather may be both included in
// the snapshot and replayed from the WAL on the next open — replay is
// at-least-once; consumers apply records idempotently. A call made
// while another compaction is in flight waits for it to finish.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.compact()
}

// compact is Compact with compactMu held.
func (s *Store) compact() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	fn := s.snapshotFunc
	if fn == nil {
		s.mu.Unlock()
		return errors.New("statestore: no snapshot func installed")
	}
	// Rotate the WAL under the lock so no append lands between the
	// sequence cut and the fresh segment.
	snapSeq := s.nextSeq
	if err := s.syncLocked(); err != nil {
		s.stats.SnapshotErrors++
		s.mu.Unlock()
		return fmt.Errorf("statestore: compact: flush WAL: %w", err)
	}
	if err := s.wal.Close(); err != nil {
		s.stats.SnapshotErrors++
		s.mu.Unlock()
		return fmt.Errorf("statestore: compact: close WAL: %w", err)
	}
	// Best effort: over a pending segment, or when the rename fails, keep
	// appending to the old one; this snapshot covers both all the same.
	rotated := !s.prevPending && s.opts.FS.Rename(s.path(walName), s.path(walPrevName)) == nil
	wal, err := s.opts.FS.OpenAppend(s.path(walName))
	if err != nil {
		s.stats.SnapshotErrors++
		s.mu.Unlock()
		return fmt.Errorf("statestore: compact: reopen WAL: %w", err)
	}
	s.wal = wal
	s.sinceSnp = 0
	if rotated {
		s.walSize = 0
		s.needsTrunc = false
		s.prevPending = true
	}
	size := int(s.snapSize)
	s.mu.Unlock()

	// The state renders after room for the envelope's head, into a
	// buffer the last snapshot's size and a little more.
	buf, err := fn(make([]byte, snapHead, snapHead+size+size/8+64))
	if err == nil {
		err = s.writeSnapshot(buf, snapSeq)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.SnapshotErrors++
		return fmt.Errorf("statestore: compact: %w", err)
	}
	s.stats.Snapshots++
	s.snapSize, s.prevPending = int64(len(buf)-snapHead), false
	_ = s.opts.FS.Remove(s.path(walPrevName))
	return nil
}

// snapHead is the room compaction leaves ahead of the state for the
// snapshot envelope's head, which takes at most 67 bytes.
const snapHead = 72

// writeSnapshot persists the state buf holds past snapHead atomically,
// with one write: temp file, fsync, rename, directory sync.
func (s *Store) writeSnapshot(buf []byte, seq uint64) error {
	// What json.Marshal(snapFile{1, seq, crc, state}) renders: state is
	// already compact JSON, and the encoder would validate and copy it twice.
	state := buf[snapHead:]
	var room [snapHead]byte
	head := strconv.AppendUint(append(room[:0], `{"version":1,"seq":`...), seq, 10)
	head = strconv.AppendUint(append(head, `,"crc32":`...), uint64(crc32.ChecksumIEEE(state)), 10)
	head = append(head, `,"state":`...)
	raw := buf[snapHead-len(head):]
	copy(raw, head)
	raw = append(raw, '}')
	f, err := s.opts.FS.Create(s.path(snapTempName))
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.opts.FS.Rename(s.path(snapTempName), s.path(snapName)); err != nil {
		return err
	}
	return s.opts.FS.SyncDir(s.dir)
}

// Tick runs the timed work due at now: an fsync under FsyncInterval
// and a compaction under SnapshotInterval, each first due one period
// after Open and then once per period. The background loop calls it on
// both periods' ticks.
func (s *Store) Tick(now time.Time) {
	s.mu.Lock()
	if s.opts.Fsync == FsyncInterval && due(&s.syncDue, now, fsyncInterval) {
		_ = s.syncLocked()
	}
	compact := s.opts.SnapshotInterval > 0 && due(&s.snapDue, now, s.opts.SnapshotInterval) &&
		s.snapshotFunc != nil && s.sinceSnp > 0
	s.mu.Unlock()
	if compact {
		_ = s.Compact()
	}
}

// due reports whether *next has come by now and, if so, moves it to
// the first period boundary after now.
func due(next *time.Time, now time.Time, period time.Duration) bool {
	if now.Before(*next) {
		return false
	}
	*next = next.Add((now.Sub(*next)/period + 1) * period)
	return true
}

// background waits out the fsync and compaction periods and calls Tick.
func (s *Store) background() {
	defer close(s.bgDone)
	syncTick := time.NewTicker(fsyncInterval)
	defer syncTick.Stop()
	var snapC <-chan time.Time
	if s.opts.SnapshotInterval > 0 {
		snapTick := time.NewTicker(s.opts.SnapshotInterval)
		defer snapTick.Stop()
		snapC = snapTick.C
	}
	for {
		var now time.Time
		select {
		case <-s.bgStop:
			return
		case now = <-syncTick.C:
		case now = <-snapC:
		}
		s.Tick(now)
	}
}

// Close flushes the WAL and releases the store. It does not compact:
// restart exercises WAL replay, which is the path that must work.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if s.bgStop != nil {
		close(s.bgStop)
	}
	s.mu.Unlock()
	if s.bgDone != nil {
		<-s.bgDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.syncLocked()
	s.closed = true
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
