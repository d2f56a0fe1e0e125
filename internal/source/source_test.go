package source

import (
	"context"
	"testing"
	"time"

	"toorjah/internal/schema"
	"toorjah/internal/storage"
)

func revSource(t *testing.T) *TableSource {
	t.Helper()
	rel := schema.MustRelation("rev", "ooi", "Person", "ConfName", "Year")
	tab := storage.NewTable("rev", 3)
	tab.Insert(storage.Row{"alice", "icde", "2008"})
	tab.Insert(storage.Row{"bob", "icde", "2008"})
	tab.Insert(storage.Row{"alice", "vldb", "2007"})
	s, err := NewTableSource(rel, tab)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// access probes w with one boundary-form binding: a batch of one through
// ProbeStrings.
func access(w Wrapper, binding ...string) ([]storage.Row, error) {
	rows, err := ProbeStrings(context.Background(), w, [][]string{binding})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

func TestTableSourceAccess(t *testing.T) {
	s := revSource(t)
	rows, err := access(s, "2008")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("access 2008: %v", rows)
	}
	rows, err = access(s, "1999")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("access 1999: %v", rows)
	}
	if _, err := access(s); err == nil {
		t.Error("binding arity mismatch: want error")
	}
}

func TestTableSourceArityMismatch(t *testing.T) {
	rel := schema.MustRelation("r", "oo", "A", "B")
	if _, err := NewTableSource(rel, storage.NewTable("r", 3)); err == nil {
		t.Error("want arity mismatch error")
	}
}

func TestFreeSourceEmptyBinding(t *testing.T) {
	rel := schema.MustRelation("f", "oo", "A", "B")
	tab := storage.NewTable("f", 2)
	tab.Insert(storage.Row{"a", "b"})
	s, _ := NewTableSource(rel, tab)
	rows, err := access(s)
	if err != nil || len(rows) != 1 {
		t.Errorf("free access: %v, %v", rows, err)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Bind(revSource(t))
	if reg.Source("rev") == nil || reg.Source("nope") != nil {
		t.Error("Source lookup misbehaves")
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "rev" {
		t.Errorf("Names = %v", got)
	}
}

func TestFromDatabase(t *testing.T) {
	sch := schema.MustParse(`
r1^io(A, B)
r2^oo(B, C)
`)
	db := storage.NewDatabase()
	tab, _ := db.Create("r1", 2)
	tab.Insert(storage.Row{"a", "b"})
	reg, err := FromDatabase(sch, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := access(reg.Source("r1"), "a")
	if err != nil || len(rows) != 1 {
		t.Errorf("r1 access: %v, %v", rows, err)
	}
	// r2 has no table: empty source, not an error.
	rows, err = access(reg.Source("r2"))
	if err != nil || len(rows) != 0 {
		t.Errorf("r2 access: %v, %v", rows, err)
	}
}

func TestLatency(t *testing.T) {
	s := revSource(t).WithLatency(5 * time.Millisecond)
	start := time.Now()
	for i := 0; i < 4; i++ {
		access(s, "2008")
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Errorf("latency not applied: %v", el)
	}
}

// TestTableSourcePinning: a snapshotted source keeps serving the version it
// pinned while the live source and the table move on, and the registry
// snapshot pins every table-backed source at once.
func TestTableSourcePinning(t *testing.T) {
	sch, err := schema.Parse("r^io(K, V)")
	if err != nil {
		t.Fatal(err)
	}
	rel := sch.Relations()[0]
	tab := storage.NewTable("r", 2)
	tab.InsertAll([]storage.Row{{"k", "old"}})
	live, err := NewTableSource(rel, tab)
	if err != nil {
		t.Fatal(err)
	}
	pinned := live.Snapshot()
	if pinned.(*TableSource).Snapshot() != pinned {
		t.Error("snapshotting a pinned source should be a no-op")
	}
	wantEpoch := EpochOf(live)

	tab.InsertAll([]storage.Row{{"k", "new"}})
	tab.DeleteAll([]storage.Row{{"k", "old"}})

	got, err := access(pinned, "k")
	if err != nil || len(got) != 1 || got[0][1] != "old" {
		t.Errorf("pinned access = %v, %v; want the old row", got, err)
	}
	if e := EpochOf(pinned); e != wantEpoch {
		t.Errorf("pinned epoch moved: %d, want %d", e, wantEpoch)
	}
	got, err = access(live, "k")
	if err != nil || len(got) != 1 || got[0][1] != "new" {
		t.Errorf("live access = %v, %v; want the new row", got, err)
	}
	if e := EpochOf(live); e == wantEpoch {
		t.Errorf("live epoch did not advance from %d", wantEpoch)
	}

	// Registry.Snapshot pins table sources.
	reg := NewRegistry()
	reg.Bind(live)
	snapReg := reg.Snapshot()
	tab.InsertAll([]storage.Row{{"k", "newer"}})
	if rows, _ := access(snapReg.Source("r"), "k"); len(rows) != 1 {
		t.Errorf("registry snapshot reads the live table: %v", rows)
	}
}
