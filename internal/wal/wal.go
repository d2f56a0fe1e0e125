package wal

import (
	"fmt"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"toorjah/internal/storage"
)

// Fsync policies. Always syncs inside every append, so a batch is on disk
// before the mutating call — and therefore the client's acknowledgement —
// returns. Interval syncs from a background ticker: bounded data loss on
// power failure, near-zero per-batch latency. Never leaves flushing to the
// OS entirely: process crashes still lose nothing (the bytes are written
// before the ack), power loss may lose the unflushed tail.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncNever    = "never"
)

// Defaults for zero Options fields.
const (
	defaultFsyncInterval   = 100 * time.Millisecond
	defaultSegmentMaxBytes = 64 << 20
)

// Options configures a Log. Only Dir is required.
type Options struct {
	// Dir holds the active log segments and snapshot files; created if
	// missing.
	Dir string

	// Fsync is the durability policy: FsyncAlways (default), FsyncInterval
	// or FsyncNever.
	Fsync string

	// FsyncInterval is the background flush period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration

	// SegmentMaxBytes seals the active segment when it would grow past
	// this size (default 64 MiB).
	SegmentMaxBytes int64

	// SnapshotInterval writes a snapshot (and deletes the files it
	// covers) this often, when a source is set and a record has been
	// handed to the log since the last snapshot. 0 disables automatic
	// snapshots.
	SnapshotInterval time.Duration

	// Logger receives recovery warnings and append-path errors
	// (default slog.Default()).
	Logger *slog.Logger
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("wal: Options.Dir is required")
	}
	switch o.Fsync {
	case "":
		o.Fsync = FsyncAlways
	case FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return o, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", o.Fsync)
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = defaultFsyncInterval
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = defaultSegmentMaxBytes
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o, nil
}

// Log is an append-only write-ahead log over size-rotated segment
// files, with epoch-stamped snapshots that bound replay and replace the
// files they cover. Open recovers existing state; AppendCommit is the
// storage commit hook; Close flushes and stops background work.
type Log struct {
	opts   Options
	logger *slog.Logger
	fail   *failpoint

	mu          sync.Mutex
	f           *os.File
	activeSeq   uint64
	activeBytes int64
	dirty       bool // unsynced bytes in the active segment
	entrySynced bool // the active segment's directory entry is on disk
	nextSeq     uint64
	unsnapped   int64 // records handed to the log since the last snapshot sealed
	source      func() map[string]storage.CommitEvent
	buf         []byte // append-path encode scratch, reused under mu
	closed      bool
	lastErr     error

	snapMu sync.Mutex // serializes snapshot writers

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	appends   atomic.Int64
	bytes     atomic.Int64
	syncs     atomic.Int64
	errors    atomic.Int64
	sealed    atomic.Int64
	snapshots atomic.Int64

	recovery RecoveryStats
}

// Open creates Dir if needed, recovers the durable state it holds (latest
// valid snapshot + WAL tail replay, truncating at the first torn record),
// starts a fresh active segment, and launches the background flush /
// rotation / snapshot loop. The returned Recovered is never nil.
func Open(opts Options) (*Log, *Recovered, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		opts:   opts,
		logger: opts.Logger,
		fail:   failpointFromEnv(),
		stopc:  make(chan struct{}),
	}
	rec, maxSeq, err := recoverState(opts.Dir, l.logger)
	if err != nil {
		return nil, nil, err
	}
	l.recovery = rec.RecoveryStats
	l.nextSeq = maxSeq + 1
	l.unsnapped = int64(rec.RecordsReplayed) // the tail no snapshot covers yet
	l.mu.Lock()
	err = l.openSegmentLocked()
	l.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	l.wg.Add(1)
	go l.run()
	return l, rec, nil
}

// segPath and snapPath name on-disk files; the 16-digit zero-padded
// sequence makes lexical order equal numeric order.
func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", seq))
}

// AppendCommit logs one applied mutation batch. It has the exact shape of
// the storage commit hook and runs inside it: under FsyncAlways the record
// is on disk before the mutating call returns, so every acknowledged batch
// is durable. Append errors are counted and logged, never propagated — a
// full disk degrades durability, it does not take query serving down.
func (l *Log) AppendCommit(ev storage.CommitEvent) {
	l.append(Record{CommitEvent: ev})
}

func (l *Log) append(rec Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	// A failed append counts too: its batch changed a table the log does
	// not hold, which only the next snapshot can record.
	l.unsnapped++
	buf, err := AppendEncode(l.buf[:0], rec)
	if err != nil {
		l.noteErrLocked("encode", err)
		return
	}
	l.buf = buf
	l.rotateLocked(int64(len(buf)))
	n, err := l.fail.write(l.f, buf)
	l.activeBytes += int64(n)
	if n > 0 {
		l.dirty = true
	}
	if err != nil {
		l.noteErrLocked("append", err)
		return
	}
	l.appends.Add(1)
	l.bytes.Add(int64(n))
	if l.opts.Fsync == FsyncAlways {
		l.syncLocked()
	}
}

// syncLocked flushes the active segment if it has unsynced bytes, and at
// the segment's first flush its directory entry: a file's fsync does not
// make its name durable. A failed directory flush leaves the segment dirty.
func (l *Log) syncLocked() {
	if !l.dirty || l.f == nil {
		return
	}
	l.fail.beforeSync()
	if err := fsync(l.f); err != nil {
		l.noteErrLocked("fsync", err)
		return
	}
	if !l.entrySynced {
		if err := syncDir(l.opts.Dir); err != nil {
			l.noteErrLocked("directory fsync", err)
			return
		}
		l.entrySynced = true
	}
	l.dirty = false
	l.syncs.Add(1)
}

func (l *Log) noteErr(op string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.noteErrLocked(op, err)
}

func (l *Log) noteErrLocked(op string, err error) {
	l.errors.Add(1)
	l.lastErr = err
	l.logger.Error("wal "+op+" failed", "dir", l.opts.Dir, "err", err)
}

// rotateLocked seals the active segment and opens a fresh one when the
// incoming record would push it past the size cap. An empty segment never
// rotates.
func (l *Log) rotateLocked(incoming int64) {
	if l.activeBytes == 0 || l.activeBytes+incoming <= l.opts.SegmentMaxBytes {
		return
	}
	l.sealLocked()
}

// sealLocked syncs and closes the active segment, then opens the next one.
// A sealed segment is complete forever, so it is flushed regardless of the
// fsync policy. If the new segment cannot be created the old one stays
// active — rotation failure must not stop the log.
func (l *Log) sealLocked() {
	prev, prevSeq := l.f, l.activeSeq
	if err := l.openSegmentLocked(); err != nil {
		l.f, l.activeSeq = prev, prevSeq
		l.noteErrLocked("rotate", err)
		return
	}
	if err := fsync(prev); err != nil {
		l.noteErrLocked("seal fsync", err)
	}
	if err := prev.Close(); err != nil {
		l.noteErrLocked("seal close", err)
	}
	l.sealed.Add(1)
}

// openSegmentLocked creates the next segment file and makes it active. The
// segment is empty, so there is nothing to fsync until the first append.
func (l *Log) openSegmentLocked() error {
	seq := l.nextSeq
	f, err := os.OpenFile(segPath(l.opts.Dir, seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	l.nextSeq++
	l.f = f
	l.activeSeq = seq
	l.activeBytes = 0
	l.dirty = false
	l.entrySynced = false
	return nil
}

// SetSource installs the function snapshots read the system state from: a
// pinned version of each relation, as one insert batch at its epoch
// (storage.Table.Batch), by relation name. Until a source is set,
// Snapshot fails and the automatic snapshot ticker idles.
func (l *Log) SetSource(fn func() map[string]storage.CommitEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.source = fn
}

// Snapshot writes a snapshot from the installed source and deletes the
// files it covers.
func (l *Log) Snapshot() error {
	l.mu.Lock()
	src := l.source
	l.mu.Unlock()
	if src == nil {
		return fmt.Errorf("wal: no snapshot source installed")
	}
	return l.snapshot(src)
}

// WriteSnapshot writes a snapshot of the given relations directly — the
// bootstrap path, used to persist a freshly seeded database before the
// first batch arrives so the WAL tail always has a base to replay onto.
func (l *Log) WriteSnapshot(batches map[string]storage.CommitEvent) error {
	return l.snapshot(func() map[string]storage.CommitEvent { return batches })
}

// snapshot is the common snapshot procedure. Order matters: the active
// segment is sealed *before* the source reads the relation states, so
// every record in a sealed segment is covered by (or duplicated in) the
// snapshot — only then is deleting the sealed segments safe. Records that
// race into the new active segment while the source reads are at worst
// duplicated by the snapshot; replay's epoch check skips them.
func (l *Log) snapshot(src func() map[string]storage.CommitEvent) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	if l.activeBytes > 0 {
		l.sealLocked()
	}
	coveredBelow := l.activeSeq
	seq := l.nextSeq
	l.nextSeq++
	unsnapped := l.unsnapped
	l.unsnapped = 0
	l.mu.Unlock()

	if err := l.writeSnapshotFile(seq, src()); err != nil {
		l.mu.Lock()
		l.unsnapped += unsnapped
		l.noteErrLocked("snapshot", err)
		l.mu.Unlock()
		return err
	}
	l.snapshots.Add(1)
	l.prune(coveredBelow, seq)
	return nil
}

// writeSnapshotFile writes batches (sorted by name, one record each) to a
// temp file, flushes it, and renames it into place — a snapshot is either
// completely present or absent, never torn.
func (l *Log) writeSnapshotFile(seq uint64, batches map[string]storage.CommitEvent) error {
	buf, err := encodeSnapshot(batches)
	if err != nil {
		return err
	}
	final := snapPath(l.opts.Dir, seq)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		// unchecked: the write already failed; the close error cannot matter
		_ = f.Close()
		return err
	}
	if err := fsync(f); err != nil {
		// unchecked: the fsync already failed; the close error cannot matter
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(l.opts.Dir)
}

// encodeSnapshot renders batches as a snapshot file's contents: sorted by
// name, one record each.
func encodeSnapshot(batches map[string]storage.CommitEvent) ([]byte, error) {
	var buf []byte
	for _, name := range slices.Sorted(maps.Keys(batches)) {
		var err error
		buf, err = AppendEncode(buf, Record{CommitEvent: batches[name], Snapshot: true})
		if err != nil {
			return nil, fmt.Errorf("wal: encoding snapshot of %s: %w", name, err)
		}
	}
	return buf, nil
}

// fsync flushes a file's written bytes, or a directory's entries, to stable
// storage. Every fsync the log makes goes through it, so a test can observe
// which files are flushed, and when.
var fsync = (*os.File).Sync

// syncDir flushes a directory so a just-created or just-renamed file
// survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := fsync(d); err != nil {
		// unchecked: the directory fsync already failed; the close error cannot matter
		_ = d.Close()
		return err
	}
	return d.Close()
}

// prune deletes what the snapshot numbered snapSeq covers, once it is on
// disk under its name: every segment below segsBelow and every older
// snapshot. Recovery reads none of them again. If a power loss undoes a
// removal, replay skips the file's records by epoch. A failure is counted,
// and the next snapshot tries again.
func (l *Log) prune(segsBelow, snapSeq uint64) {
	for _, kind := range []struct {
		prefix, suffix string
		below          uint64
	}{{"wal-", ".log", segsBelow}, {"snap-", ".snap", snapSeq}} {
		names, err := listSeq(l.opts.Dir, kind.prefix, kind.suffix)
		if err != nil {
			l.noteErr("prune", err)
			return
		}
		for _, e := range names {
			if e.seq >= kind.below {
				break
			}
			if err := os.Remove(filepath.Join(l.opts.Dir, e.name)); err != nil {
				l.noteErr("prune", err)
			}
		}
	}
}

// run is the background loop: interval fsync, and a periodic snapshot
// whenever a record has been handed to the log since the last one.
func (l *Log) run() {
	defer l.wg.Done()
	var syncC, snapC <-chan time.Time
	if l.opts.Fsync == FsyncInterval {
		t := time.NewTicker(l.opts.FsyncInterval)
		defer t.Stop()
		syncC = t.C
	}
	if l.opts.SnapshotInterval > 0 {
		t := time.NewTicker(l.opts.SnapshotInterval)
		defer t.Stop()
		snapC = t.C
	}
	for {
		select {
		case <-l.stopc:
			return
		case <-syncC:
			l.mu.Lock()
			l.syncLocked()
			l.mu.Unlock()
		case <-snapC:
			l.mu.Lock()
			src, unsnapped := l.source, l.unsnapped
			l.mu.Unlock()
			if src != nil && unsnapped > 0 {
				// unchecked: snapshot has already counted and logged the error.
				_ = l.snapshot(src)
			}
		}
	}
}

// Close stops the background loop, flushes the active segment and closes
// it. The log accepts no appends afterwards.
func (l *Log) Close() error {
	l.stopOnce.Do(func() { close(l.stopc) })
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.syncLocked()
	err := l.f.Close()
	l.f = nil
	return err
}

// Stats is a point-in-time counter snapshot for /metrics.
type Stats struct {
	Appends        int64
	AppendedBytes  int64
	Syncs          int64
	Errors         int64
	SegmentsSealed int64
	Snapshots      int64
	ActiveSegment  uint64
	ActiveBytes    int64
	LastError      string
	Recovery       RecoveryStats
}

// RecoveryStats describes what Open found on disk.
type RecoveryStats struct {
	HadSnapshot     bool
	SnapshotSeq     uint64
	SegmentsScanned int
	RecordsReplayed int  // tail records applied on top of the snapshot
	RecordsSkipped  int  // at or below their relation's epoch, or of another arity
	UnknownRecords  int  // checksummed records of unknown type
	Truncated       bool // a torn/corrupt tail was cut from a segment
	Relations       int  // how many relations Recovered.Relations holds
	DurationMS      float64
}

// Stats returns current counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	activeSeq, activeBytes, lastErr := l.activeSeq, l.activeBytes, l.lastErr
	l.mu.Unlock()
	s := Stats{
		Appends:        l.appends.Load(),
		AppendedBytes:  l.bytes.Load(),
		Syncs:          l.syncs.Load(),
		Errors:         l.errors.Load(),
		SegmentsSealed: l.sealed.Load(),
		Snapshots:      l.snapshots.Load(),
		ActiveSegment:  activeSeq,
		ActiveBytes:    activeBytes,
		Recovery:       l.recovery,
	}
	if lastErr != nil {
		s.LastError = lastErr.Error()
	}
	return s
}
