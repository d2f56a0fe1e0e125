package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"toorjah/internal/storage"
)

func mustEncode(t *testing.T, r Record) []byte {
	t.Helper()
	b, err := AppendEncode(nil, r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		record(TypeInsert, "pub", 2, 7, storage.Row{"a", "b"}, storage.Row{"", "x\x00y"}),
		record(TypeDelete, "conf", 3, 1<<40, storage.Row{"1", "2", "3"}),
		record(TypeSnapshotRows, "empty", 1, 1),
	}
	var stream []byte
	for _, r := range recs {
		stream = append(stream, mustEncode(t, r)...)
	}
	for i, want := range recs {
		got, n, err := Decode(stream)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if got.Op != want.Op || got.Snapshot != want.Snapshot || got.Relation != want.Relation ||
			got.Arity != want.Arity || got.Epoch != want.Epoch ||
			!reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		// Canonical: re-encoding reproduces the input frame exactly.
		re := mustEncode(t, got)
		if !bytes.Equal(re, stream[:n]) {
			t.Fatalf("record %d: re-encode differs from input frame", i)
		}
		stream = stream[n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d bytes left over", len(stream))
	}
}

func TestEncodeRejectsMalformed(t *testing.T) {
	cases := []Record{
		record(TypeInsert, "", 1, 1),
		record(TypeInsert, "r", 0, 1),
		record(TypeInsert, "r", 2, 1, storage.Row{"only-one"}),
	}
	for i, r := range cases {
		if _, err := AppendEncode(nil, r); err == nil {
			t.Errorf("case %d: encode accepted malformed record", i)
		}
	}
}

func TestDecodeTornAndCorrupt(t *testing.T) {
	frame := mustEncode(t, record(TypeInsert, "r", 1, 2, storage.Row{"v"}))
	for cut := 0; cut < len(frame); cut++ {
		if _, n, err := Decode(frame[:cut]); !errors.Is(err, ErrTorn) || n != 0 {
			t.Fatalf("prefix of %d bytes: want ErrTorn/0, got n=%d err=%v", cut, n, err)
		}
	}
	// Flip a payload byte: checksum must catch it.
	bad := bytes.Clone(frame)
	bad[len(bad)-1] ^= 0xff
	if _, _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: want ErrCorrupt, got %v", err)
	}
}

func TestDecodeUnknownTypeSkippable(t *testing.T) {
	frame := mustEncode(t, record(TypeInsert, "r", 1, 2, storage.Row{"v"}))
	// Rewrite the type byte (payload[0] = frame[8]) and fix the checksum:
	// a valid frame of a future record type.
	frame[8] = 250
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[8:]))
	_, n, err := Decode(frame)
	if !errors.Is(err, ErrUnknownType) {
		t.Fatalf("want ErrUnknownType, got %v", err)
	}
	if n != len(frame) {
		t.Fatalf("unknown type must return the frame size %d, got %d", len(frame), n)
	}
	if !strings.Contains(err.Error(), "type 250") {
		t.Fatalf("error %q does not name type 250", err)
	}
}

// openTestLog opens a log on dir with quiet logging and test-friendly
// defaults, failing the test on error.
func openTestLog(t *testing.T, dir string, mut func(*Options)) (*Log, *Recovered) {
	t.Helper()
	opts := Options{
		Dir:    dir,
		Fsync:  FsyncNever,
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})),
	}
	if mut != nil {
		mut(&opts)
	}
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, rec
}

func ev(rel string, op storage.CommitOp, epoch uint64, rows ...storage.Row) storage.CommitEvent {
	return storage.CommitEvent{Relation: rel, Arity: len(rows[0]), Op: op, Epoch: epoch, Rows: rows}
}

// record builds the record a frame of type typ decodes to.
func record(typ byte, rel string, arity int, epoch uint64, rows ...storage.Row) Record {
	op := storage.OpInsert
	if typ == TypeDelete {
		op = storage.OpDelete
	}
	return Record{CommitEvent: storage.CommitEvent{Relation: rel, Arity: arity, Op: op, Epoch: epoch, Rows: rows}, Snapshot: typ == TypeSnapshotRows}
}

// batches keys each batch by its relation, as a snapshot source does.
func batches(evs ...storage.CommitEvent) map[string]storage.CommitEvent {
	m := make(map[string]storage.CommitEvent, len(evs))
	for _, e := range evs {
		m[e.Relation] = e
	}
	return m
}

func TestRecoverEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	l, rec := openTestLog(t, dir, nil)
	if rec.HadSnapshot || len(rec.Relations) != 0 || rec.RecordsReplayed != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: one empty segment on disk, still nothing to recover.
	l2, rec2 := openTestLog(t, dir, nil)
	defer l2.Close()
	if len(rec2.Relations) != 0 || rec2.Truncated {
		t.Fatalf("empty WAL recovered state: %+v", rec2)
	}
	if rec2.SegmentsScanned == 0 {
		t.Fatal("expected the previous empty segment to be scanned")
	}
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, nil)
	l.AppendCommit(ev("pub", storage.OpInsert, 2, storage.Row{"a", "1"}, storage.Row{"b", "2"}))
	l.AppendCommit(ev("pub", storage.OpInsert, 3, storage.Row{"c", "3"}))
	l.AppendCommit(ev("pub", storage.OpDelete, 4, storage.Row{"a", "1"}))
	l.AppendCommit(ev("seed", storage.OpInsert, 2, storage.Row{"s"}))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := mustReopenClosed(t, dir)
	if rec.RecordsReplayed != 4 || rec.Truncated {
		t.Fatalf("recovery: %+v", rec)
	}
	pub := rec.Relations["pub"]
	if pub == nil || pub.Epoch() != 4 || pub.Arity != 2 {
		t.Fatalf("pub state: %+v", pub)
	}
	wantRows := []storage.Row{{"b", "2"}, {"c", "3"}}
	if !reflect.DeepEqual(pub.Snapshot().Rows(), wantRows) {
		t.Fatalf("pub rows = %v, want %v", pub.Snapshot().Rows(), wantRows)
	}
	if seed := rec.Relations["seed"]; seed == nil || seed.Epoch() != 2 || seed.Snapshot().Len() != 1 {
		t.Fatalf("seed state: %+v", rec.Relations["seed"])
	}
}

// mustReopenClosed opens the log a second time and closes it before
// returning, handing back just the recovery result.
func mustReopenClosed(t *testing.T, dir string) (Stats, *Recovered) {
	t.Helper()
	l, rec := openTestLog(t, dir, nil)
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return st, rec
}

func TestSnapshotNoTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, nil)
	if err := l.WriteSnapshot(batches(
		ev("pub", storage.OpInsert, 9, storage.Row{"a", "1"}, storage.Row{"b", "2"}),
		storage.CommitEvent{Relation: "bare", Arity: 1, Op: storage.OpInsert, Epoch: 1},
	)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := mustReopenClosed(t, dir)
	if !rec.HadSnapshot || rec.RecordsReplayed != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	pub := rec.Relations["pub"]
	if pub == nil || pub.Epoch() != 9 || pub.Snapshot().Len() != 2 {
		t.Fatalf("pub state: %+v", pub)
	}
	if bare := rec.Relations["bare"]; bare == nil || bare.Epoch() != 1 || bare.Snapshot().Len() != 0 {
		t.Fatalf("bare state: %+v", rec.Relations["bare"])
	}
}

func TestSnapshotPlusTailAndIdempotentReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, nil)
	l.AppendCommit(ev("pub", storage.OpInsert, 2, storage.Row{"a", "1"}))
	l.AppendCommit(ev("pub", storage.OpInsert, 3, storage.Row{"b", "2"}))
	// Snapshot covers epochs <= 3; the segment holding them is archived.
	if err := l.WriteSnapshot(batches(
		ev("pub", storage.OpInsert, 3, storage.Row{"a", "1"}, storage.Row{"b", "2"}),
	)); err != nil {
		t.Fatal(err)
	}
	l.AppendCommit(ev("pub", storage.OpInsert, 4, storage.Row{"c", "3"}))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := mustReopenClosed(t, dir)
	if !rec.HadSnapshot {
		t.Fatal("snapshot not found")
	}
	pub := rec.Relations["pub"]
	if pub == nil || pub.Epoch() != 4 || pub.Snapshot().Len() != 3 {
		t.Fatalf("pub state: %+v", pub)
	}

	// Duplicate replay: put a copy of the pre-snapshot records back as a
	// fresh segment after the snapshot — replay must skip them by epoch,
	// not double-apply.
	dup, err := AppendEncode(nil, record(TypeInsert, "pub", 2, 2, storage.Row{"a", "1"}))
	if err != nil {
		t.Fatal(err)
	}
	dup, err = AppendEncode(dup, record(TypeDelete, "pub", 2, 3, storage.Row{"b", "2"}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, 99), dup, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec2 := mustReopenClosed(t, dir)
	pub2 := rec2.Relations["pub"]
	if pub2 == nil || pub2.Epoch() != 4 || pub2.Snapshot().Len() != 3 {
		t.Fatalf("after duplicate replay: %+v", pub2)
	}
	if rec2.RecordsSkipped == 0 {
		t.Fatal("duplicate records were not counted as skipped")
	}
}

func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, nil)
	l.AppendCommit(ev("pub", storage.OpInsert, 2, storage.Row{"a", "1"}))
	l.AppendCommit(ev("pub", storage.OpInsert, 3, storage.Row{"b", "2"}))
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop bytes off the active segment's tail.
	seg := segPath(dir, st.ActiveSegment)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	_, rec := mustReopenClosed(t, dir)
	if !rec.Truncated {
		t.Fatal("torn tail not reported")
	}
	pub := rec.Relations["pub"]
	if pub == nil || pub.Epoch() != 2 || pub.Snapshot().Len() != 1 {
		t.Fatalf("state after truncation: %+v", pub)
	}
	// The torn bytes are gone: a third open sees a clean log.
	_, rec2 := mustReopenClosed(t, dir)
	if rec2.Truncated {
		t.Fatal("truncation did not persist")
	}
	if p := rec2.Relations["pub"]; p == nil || p.Epoch() != 2 {
		t.Fatalf("state after second recovery: %+v", p)
	}
}

func TestUnknownRecordTypeSkippedWithWarning(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, nil)
	l.AppendCommit(ev("pub", storage.OpInsert, 2, storage.Row{"a", "1"}))
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Append a valid-checksum frame of a future type, then a normal record
	// after it — replay must skip the unknown frame and keep going.
	future := mustFrameOfType(t, 251)
	tail, err := AppendEncode(nil, record(TypeInsert, "pub", 2, 3, storage.Row{"b", "2"}))
	if err != nil {
		t.Fatal(err)
	}
	seg := segPath(dir, st.ActiveSegment)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(future, tail...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	opts := Options{Dir: dir, Fsync: FsyncNever,
		Logger: slog.New(slog.NewTextHandler(&logged, nil))}
	l2, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.UnknownRecords != 1 {
		t.Fatalf("unknown records = %d, want 1", rec.UnknownRecords)
	}
	if rec.Truncated {
		t.Fatal("unknown type must not truncate")
	}
	if p := rec.Relations["pub"]; p == nil || p.Epoch() != 3 || p.Snapshot().Len() != 2 {
		t.Fatalf("records after the unknown frame were lost: %+v", rec.Relations["pub"])
	}
	if !bytes.Contains(logged.Bytes(), []byte("unknown type")) {
		t.Fatalf("no warning logged; log output:\n%s", logged.String())
	}
}

// mustFrameOfType builds a checksummed frame whose type byte no current
// binary understands.
func mustFrameOfType(t *testing.T, typ byte) []byte {
	t.Helper()
	frame, err := AppendEncode(nil, record(TypeInsert, "x", 1, 1, storage.Row{"v"}))
	if err != nil {
		t.Fatal(err)
	}
	frame[8] = typ
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[8:]))
	return frame
}

func TestRotationAndArchive(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, func(o *Options) { o.SegmentMaxBytes = 128 })
	for i := 0; i < 20; i++ {
		l.AppendCommit(ev("pub", storage.OpInsert, uint64(i+2),
			storage.Row{"key-key-key", "value-value-value"}))
	}
	st := l.Stats()
	if st.SegmentsSealed == 0 {
		t.Fatalf("no segments sealed at a 128-byte cap: %+v", st)
	}

	// Snapshot: sealed segments move to the archive, recovery still sees
	// the full state.
	if err := l.WriteSnapshot(batches(
		ev("pub", storage.OpInsert, 21, storage.Row{"key-key-key", "value-value-value"}),
	)); err != nil {
		t.Fatal(err)
	}
	active := l.Stats().ActiveSegment
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	holdsOnly(t, dir, active+1, active)

	_, rec := mustReopenClosed(t, dir)
	if p := rec.Relations["pub"]; p == nil || p.Epoch() != 21 {
		t.Fatalf("state after archive: %+v", rec.Relations["pub"])
	}
}

func TestSnapshotFromSource(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, nil)
	defer l.Close()
	if err := l.Snapshot(); err == nil {
		t.Fatal("Snapshot without a source must fail")
	}
	l.SetSource(func() map[string]storage.CommitEvent {
		return batches(ev("pub", storage.OpInsert, 5, storage.Row{"a", "1"}))
	})
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Snapshots != 1 {
		t.Fatalf("snapshots = %d, want 1", l.Stats().Snapshots)
	}
}

func TestIntervalFsyncPolicy(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, func(o *Options) {
		o.Fsync = FsyncInterval
		o.FsyncInterval = 5 * time.Millisecond
	})
	defer l.Close()
	l.AppendCommit(ev("pub", storage.OpInsert, 2, storage.Row{"a", "1"}))
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval policy never synced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir must fail")
	}
	if _, _, err := Open(Options{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Fatal("Open with a bogus fsync policy must fail")
	}
}

// fsyncCall is one fsync the log made: the file it flushed, and the
// snapshot files Dir held at that moment.
type fsyncCall struct {
	name  string
	snaps []string
}

// recordFsyncs routes the log's fsyncs through a recorder for the rest of
// the test. The log under test must be opened after it and closed before
// the test ends.
func recordFsyncs(t *testing.T, dir string) *[]fsyncCall {
	t.Helper()
	var calls []fsyncCall
	prev := fsync
	fsync = func(f *os.File) error {
		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*"))
		if err != nil {
			t.Error(err)
		}
		calls = append(calls, fsyncCall{f.Name(), snaps})
		return prev(f)
	}
	t.Cleanup(func() { fsync = prev })
	return &calls
}

// TestSnapshotAndSealFsync: a snapshot is flushed under its temporary name
// before the rename publishes it, and the directory entry the rename made is
// flushed after it; a sealed segment is flushed whatever the fsync policy.
// Without any one of the three, power loss can leave recovery an empty
// snapshot, a snapshot that vanished, or a sealed segment missing records.
func TestSnapshotAndSealFsync(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		calls := recordFsyncs(t, dir)
		l, _ := openTestLog(t, dir, nil)
		if err := l.WriteSnapshot(batches(
			ev("pub", storage.OpInsert, 3, storage.Row{"a", "1"}),
		)); err != nil {
			t.Fatal(err)
		}
		final, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if err != nil || len(final) != 1 {
			t.Fatalf("snapshot files %v (%v), want one", final, err)
		}
		published := []string{final[0]}
		var file, entry bool
		for _, c := range *calls {
			switch c.name {
			case final[0] + ".tmp":
				file = true
				if !reflect.DeepEqual(c.snaps, []string{final[0] + ".tmp"}) {
					t.Errorf("snapshot fsynced when Dir held %v, want it before the rename", c.snaps)
				}
			case dir:
				entry = true
				if !file || !reflect.DeepEqual(c.snaps, published) {
					t.Errorf("Dir fsynced when it held %v (file fsynced: %v), want it after the rename", c.snaps, file)
				}
			}
		}
		if !file || !entry {
			t.Errorf("fsyncs %v: snapshot file fsynced %v, Dir %v; want both", *calls, file, entry)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("seal", func(t *testing.T) {
		dir := t.TempDir()
		calls := recordFsyncs(t, dir)
		l, _ := openTestLog(t, dir, func(o *Options) { o.SegmentMaxBytes = 64 })
		first := segPath(dir, l.Stats().ActiveSegment)
		for i := 0; i < 2; i++ {
			l.AppendCommit(ev("pub", storage.OpInsert, uint64(i+2), storage.Row{"key-key-key", "value-value-value"}))
		}
		if l.Stats().SegmentsSealed != 1 {
			t.Fatalf("%d segments sealed, want 1", l.Stats().SegmentsSealed)
		}
		sealed := false
		for _, c := range *calls {
			sealed = sealed || c.name == first
		}
		if !sealed {
			t.Errorf("fsyncs %v under FsyncNever: the sealed segment %s is not among them", *calls, first)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSegmentEntryFsync: under FsyncAlways the directory is flushed in the
// append that first writes to a segment — once per segment, after the
// segment file — so the new file's name is on disk before the record is
// acknowledged; syncing a file does not make its directory entry durable. A
// failed directory flush is counted as a WAL error and retried at the next
// flush.
func TestSegmentEntryFsync(t *testing.T) {
	row := storage.Row{"key-key-key", "value-value-value"} // a 64-byte frame
	t.Run("once per segment", func(t *testing.T) {
		dir := t.TempDir()
		calls := recordFsyncs(t, dir)
		l, _ := openTestLog(t, dir, func(o *Options) { o.Fsync, o.SegmentMaxBytes = FsyncAlways, 128 })
		first := segPath(dir, l.Stats().ActiveSegment)
		second := segPath(dir, l.Stats().ActiveSegment+1)
		// Two frames fill a segment; the third seals the first segment.
		for i, want := range [][]string{{first, dir}, {first}, {first, second, dir}, {second}} {
			before := len(*calls)
			l.AppendCommit(ev("pub", storage.OpInsert, uint64(i+2), row))
			var names []string
			for _, c := range (*calls)[before:] {
				names = append(names, c.name)
			}
			if !reflect.DeepEqual(names, want) {
				t.Errorf("append %d fsynced %v, want %v", i, names, want)
			}
		}
		if st := l.Stats(); st.SegmentsSealed != 1 || st.Errors != 0 {
			t.Errorf("%d segments sealed, %d errors; want 1 and 0", st.SegmentsSealed, st.Errors)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("failure", func(t *testing.T) {
		dir := t.TempDir()
		failDir := errors.New("injected directory fsync failure")
		prev := fsync
		fsync = func(f *os.File) error {
			if f.Name() == dir {
				return failDir
			}
			return prev(f)
		}
		t.Cleanup(func() { fsync = prev })
		l, _ := openTestLog(t, dir, func(o *Options) {
			o.Fsync, o.Logger = FsyncAlways, slog.New(slog.NewTextHandler(io.Discard, nil))
		})
		l.AppendCommit(ev("pub", storage.OpInsert, 2, row))
		l.AppendCommit(ev("pub", storage.OpInsert, 3, row))
		if st := l.Stats(); st.Errors != 2 || st.Syncs != 0 || st.LastError != failDir.Error() {
			t.Errorf("after two appends: %d errors, %d syncs, last error %q; want 2, 0 and the injected one", st.Errors, st.Syncs, st.LastError)
		}
		fsync = prev
		l.AppendCommit(ev("pub", storage.OpInsert, 4, row))
		if st := l.Stats(); st.Errors != 2 || st.Syncs != 1 {
			t.Errorf("once the directory flushes: %d errors, %d syncs; want 2 and 1", st.Errors, st.Syncs)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
