package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"toorjah/internal/storage"
)

// loggedTable returns a table whose every applied batch l logs, and makes it
// l's snapshot source.
func loggedTable(l *Log, name string, arity int) *storage.Table {
	tab := storage.NewTable(name, arity)
	tab.SetCommitHook(l.AppendCommit)
	l.SetSource(func() []RelationState {
		snap := tab.Snapshot()
		return []RelationState{{Name: name, Arity: arity, Epoch: snap.Epoch(), Rows: snap.Rows()}}
	})
	return tab
}

// TestReplayedTableEnumeratesLikeTheOriginal: a table rebuilt from the log
// alone lists its rows in the order the never-crashed table does, at its
// epoch. Re-inserting a deleted row revives it at its old place, so a model
// that appends it instead lists a c b here.
func TestReplayedTableEnumeratesLikeTheOriginal(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, nil)
	orig := loggedTable(l, "pub", 1)
	orig.InsertAll([]storage.Row{{"a"}, {"b"}, {"c"}})
	orig.DeleteAll([]storage.Row{{"b"}})
	orig.InsertAll([]storage.Row{{"b"}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := mustReopenClosed(t, dir)
	if rec.HadSnapshot {
		t.Fatal("the log holds a snapshot; this test replays batches only")
	}
	got := rec.Relations["pub"]
	if got == nil {
		t.Fatal("pub was not recovered")
	}
	want := orig.Snapshot()
	if rows := got.Snapshot().Rows(); !reflect.DeepEqual(rows, want.Rows()) {
		t.Errorf("recovered rows %v, never-crashed table %v", rows, want.Rows())
	}
	if got.Epoch() != want.Epoch() {
		t.Errorf("recovered epoch %d, never-crashed table %d", got.Epoch(), want.Epoch())
	}
}

// TestGapKeepsTheRecordEpoch: when the only live snapshot is unreadable and
// the segments it covered are already archived, the log has a gap, and the
// relation recovers from the tail alone — at its last record's epoch, never
// below the epoch it was served at, which epoch-keyed cache entries and
// peers' staleness checks rely on.
func TestGapKeepsTheRecordEpoch(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTestLog(t, dir, nil)
	orig := loggedTable(l, "pub", 2)
	orig.InsertAll([]storage.Row{{"a", "1"}})
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	orig.InsertAll([]storage.Row{{"b", "2"}})
	// The second snapshot archives the first and the segment behind it.
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	orig.InsertAll([]storage.Row{{"c", "3"}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSeq(dir, "snap-", ".snap")
	if err != nil || len(snaps) != 1 {
		t.Fatalf("live snapshots %v (%v), want the second one alone", snaps, err)
	}
	if err := os.WriteFile(filepath.Join(dir, snaps[0].name), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustReopenClosed(t, dir)
	if rec.HadSnapshot {
		t.Fatal("the corrupt snapshot was loaded")
	}
	pub := rec.Relations["pub"]
	if pub == nil {
		t.Fatal("pub was not recovered")
	}
	if pub.Epoch() != orig.Epoch() {
		t.Errorf("recovered at epoch %d, the last record's is %d", pub.Epoch(), orig.Epoch())
	}
	if rows, want := pub.Snapshot().Rows(), []storage.Row{{"c", "3"}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("recovered rows %v, want the tail's %v", rows, want)
	}
}
