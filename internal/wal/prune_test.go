package wal

import (
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"toorjah/internal/storage"
)

// holdsOnly fails the test unless dir holds exactly the snapshot numbered
// snap and the segments numbered segs: no older file, and no archive/.
func holdsOnly(t *testing.T, dir string, snap uint64, segs ...uint64) {
	t.Helper()
	want := []string{filepath.Base(snapPath(dir, snap))}
	for _, seq := range segs {
		want = append(want, filepath.Base(segPath(dir, seq)))
	}
	slices.Sort(want)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s holds %v, want %v", dir, got, want)
	}
}

// awaitSnapshots waits until l has written n snapshots.
func awaitSnapshots(t *testing.T, l *Log, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Snapshots < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d snapshots written, want %d", l.Stats().Snapshots, n)
		}
		time.Sleep(time.Millisecond)
	}
}

const tick = 20 * time.Millisecond

// TestTimedSnapshotSkipsAnIdleLog: the snapshot timer writes nothing while
// no record reaches the log, and exactly one snapshot after one batch.
func TestTimedSnapshotSkipsAnIdleLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, func(o *Options) { o.SnapshotInterval = tick })
	defer l.Close()
	tab := loggedTable(l, "pub", 2)
	time.Sleep(8 * tick)
	if n := l.Stats().Snapshots; n != 0 {
		t.Fatalf("an idle log wrote %d snapshots over 8 ticks, want 0", n)
	}
	tab.InsertAll([]storage.Row{{"a", "1"}})
	awaitSnapshots(t, l, 1)
	time.Sleep(8 * tick)
	if n := l.Stats().Snapshots; n != 1 {
		t.Fatalf("one batch yielded %d snapshots, want 1", n)
	}
}

// TestTimedSnapshotCoversARecoveredTail: records replayed at Open were
// handed to the log and no snapshot covers them yet, so the timer writes
// one for them without waiting for a new record.
func TestTimedSnapshotCoversARecoveredTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, nil)
	loggedTable(l, "pub", 2).InsertAll([]storage.Row{{"a", "1"}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, rec := openTestLog(t, dir, func(o *Options) { o.SnapshotInterval = tick })
	defer l.Close()
	if rec.RecordsReplayed != 1 {
		t.Fatalf("%d records replayed, want 1", rec.RecordsReplayed)
	}
	l.SetSource(func() map[string]storage.CommitEvent { return batches(rec.Relations["pub"].Batch()) })
	awaitSnapshots(t, l, 1)
}

// TestSnapshotKeepsOnlyWhatRecoveryReads: once a timed snapshot is on disk,
// the directory holds it and the segments from its seal on — the sealed
// segments and the older snapshot it covers are deleted — and recovery
// reads the same state from what is left.
func TestSnapshotKeepsOnlyWhatRecoveryReads(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, func(o *Options) { o.SegmentMaxBytes = 128 })
	tab := loggedTable(l, "pub", 2)
	tab.InsertAll([]storage.Row{{"key-key-key", "value-value-value"}})
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, _ = openTestLog(t, dir, func(o *Options) { o.SegmentMaxBytes, o.SnapshotInterval = 128, tick })
	tab.SetCommitHook(l.AppendCommit)
	for i := 0; i < 6; i++ {
		tab.InsertAll([]storage.Row{{"key-key-key", "value-" + string(rune('a'+i))}})
	}
	// The timer snapshots once a source is set: after every batch.
	l.SetSource(func() map[string]storage.CommitEvent { return batches(tab.Batch()) })
	awaitSnapshots(t, l, 1)
	if err := l.Close(); err != nil { // waits out the snapshot's deletions
		t.Fatal(err)
	}
	if st := l.Stats(); st.SegmentsSealed < 2 || st.Snapshots != 1 {
		t.Fatalf("%d segments sealed and %d snapshots, want several behind one", st.SegmentsSealed, st.Snapshots)
	}
	snaps, err := listSeq(dir, "snap-", ".snap")
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v (%v), want one", snaps, err)
	}
	holdsOnly(t, dir, snaps[0].seq, snaps[0].seq-1)

	_, rec := mustReopenClosed(t, dir)
	got := rec.Relations["pub"]
	if got == nil || got.Epoch() != tab.Epoch() || !reflect.DeepEqual(got.Snapshot().Rows(), tab.Snapshot().Rows()) {
		t.Fatalf("recovered %+v, want the table at epoch %d", got, tab.Epoch())
	}
}

// writeLogFile writes the frames of recs to dir/name.
func writeLogFile(t *testing.T, dir, name string, recs ...Record) {
	t.Helper()
	var b []byte
	for _, r := range recs {
		b = append(b, mustEncode(t, r)...)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readTree maps each file under dir to its contents.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestArchiveOfAnOlderLogIsLeftAlone: a directory laid out as a log that
// archived what its snapshots covered leaves it — older segments and
// snapshots, and an orphan, under archive/ — recovers from its live files
// alone, numbers its next segment above every live and orphaned file, and
// never reads or writes archive/, a snapshot's deletions included.
func TestArchiveOfAnOlderLogIsLeftAlone(t *testing.T) {
	dir := t.TempDir()
	arch := filepath.Join(dir, "archive")
	if err := os.Mkdir(arch, 0o755); err != nil {
		t.Fatal(err)
	}
	writeLogFile(t, arch, "wal-0000000000000001.log", record(TypeInsert, "pub", 2, 2, storage.Row{"a", "1"}))
	writeLogFile(t, arch, "snap-0000000000000002.snap", record(TypeSnapshotRows, "pub", 2, 2, storage.Row{"a", "1"}))
	writeLogFile(t, arch, "wal-0000000000000003.log.orphan", record(TypeInsert, "pub", 2, 9, storage.Row{"z", "9"}))
	writeLogFile(t, dir, "wal-0000000000000004.log", record(TypeInsert, "pub", 2, 3, storage.Row{"b", "2"}))
	writeLogFile(t, dir, "snap-0000000000000005.snap", record(TypeSnapshotRows, "pub", 2, 3, storage.Row{"a", "1"}, storage.Row{"b", "2"}))
	writeLogFile(t, dir, "wal-0000000000000006.log", record(TypeInsert, "pub", 2, 4, storage.Row{"c", "3"}))
	archived := readTree(t, arch)

	l, rec := openTestLog(t, dir, nil)
	if st := l.Stats(); st.ActiveSegment != 7 {
		t.Errorf("next segment numbered %d, want 7", st.ActiveSegment)
	}
	pub := rec.Relations["pub"]
	want := []storage.Row{{"a", "1"}, {"b", "2"}, {"c", "3"}}
	if pub == nil || pub.Epoch() != 4 || !reflect.DeepEqual(pub.Snapshot().Rows(), want) {
		t.Fatalf("recovered %+v, want %v at epoch 4", pub, want)
	}
	if rec.SnapshotSeq != 5 || rec.RecordsReplayed != 1 || rec.RecordsSkipped != 1 {
		t.Errorf("recovery %+v, want snapshot 5, one record replayed and one skipped", rec.RecoveryStats)
	}
	l.SetSource(func() map[string]storage.CommitEvent { return batches(pub.Batch()) })
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readTree(t, arch); !maps.Equal(got, archived) {
		t.Errorf("archive/ changed: holds %v, had %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(archived)))
	}
	if _, err := os.Stat(filepath.Join(dir, "snap-0000000000000005.snap")); !os.IsNotExist(err) {
		t.Errorf("the covered snapshot is still live (%v)", err)
	}
}

// TestOrphanKeepsItsNumber: a segment past a torn record stays in the log
// directory as <name>.orphan, never replayed, and no later segment takes its
// number — also when the segment recovery opened behind it is lost.
func TestOrphanKeepsItsNumber(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, func(o *Options) { o.SegmentMaxBytes = 128 })
	row := storage.Row{"key-key-key", "value-value-value"} // a 64-byte frame
	for epoch := uint64(2); epoch <= 4; epoch++ {
		l.AppendCommit(ev("pub", storage.OpInsert, epoch, row))
	}
	if st := l.Stats(); st.ActiveSegment != 2 {
		t.Fatalf("the third record went to segment %d, want 2", st.ActiveSegment)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	first := segPath(dir, 1)
	info, err := os.Stat(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(first, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	st, rec := mustReopenClosed(t, dir)
	if !rec.Truncated || rec.Relations["pub"].Epoch() != 2 {
		t.Fatalf("recovery %+v, want the torn record cut and pub at epoch 2", rec.RecoveryStats)
	}
	if _, err := os.Stat(segPath(dir, 2) + ".orphan"); err != nil {
		t.Fatalf("segment 2 was not orphaned in place: %v", err)
	}
	if st.ActiveSegment != 3 {
		t.Fatalf("next segment numbered %d, want 3", st.ActiveSegment)
	}
	if err := os.Remove(segPath(dir, 3)); err != nil {
		t.Fatal(err)
	}
	st, rec = mustReopenClosed(t, dir)
	if st.ActiveSegment != 3 || rec.Relations["pub"].Epoch() != 2 {
		t.Errorf("after losing segment 3: next segment %d, pub at epoch %d; want 3 and 2", st.ActiveSegment, rec.Relations["pub"].Epoch())
	}
}
