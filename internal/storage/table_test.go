package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"toorjah/internal/sym"
)

func TestInsertDedupAndLen(t *testing.T) {
	tab := NewTable("r", 2)
	if !tab.Insert(Row{"a", "1"}) {
		t.Error("first insert should be new")
	}
	if tab.Insert(Row{"a", "1"}) {
		t.Error("duplicate insert should report false")
	}
	if tab.Snapshot().Len() != 1 {
		t.Errorf("Len = %d", tab.Snapshot().Len())
	}
	if !tab.Snapshot().Contains(Row{"a", "1"}) || tab.Snapshot().Contains(Row{"a", "2"}) {
		t.Error("Contains misbehaves")
	}
}

func TestInsertArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on arity mismatch")
		}
	}()
	NewTable("r", 2).Insert(Row{"a"})
}

func TestSelectWithIndex(t *testing.T) {
	tab := NewTable("r", 3)
	tab.Insert(Row{"a", "1", "x"})
	tab.Insert(Row{"a", "2", "y"})
	tab.Insert(Row{"b", "1", "x"})
	if got := sel(tab.Snapshot(), []int{0}, "a"); len(got) != 2 {
		t.Errorf("Select(0=a) = %v", got)
	}
	if got := sel(tab.Snapshot(), []int{0, 2}, "b", "x"); len(got) != 1 {
		t.Errorf("Select(0=b,2=x) = %v", got)
	}
	if got := sel(tab.Snapshot(), nil); len(got) != 3 {
		t.Errorf("Select(all) = %v", got)
	}
	// Insert after index creation must be visible.
	tab.Insert(Row{"a", "3", "z"})
	if got := sel(tab.Snapshot(), []int{0}, "a"); len(got) != 3 {
		t.Errorf("Select after insert = %v", got)
	}
}

func TestSelectMismatchedArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on positions/values mismatch")
		}
	}()
	sel(NewTable("r", 2).Snapshot(), []int{0, 1}, "a")
}

func TestRowKeyCollision(t *testing.T) {
	if (Row{"ab", "c"}).Key() == (Row{"a", "bc"}).Key() {
		t.Error("row keys collide")
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	if _, err := db.Create("r", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create("r", 3); err == nil {
		t.Error("duplicate Create: want error")
	}
	if db.Table("r") == nil || db.Table("x") != nil {
		t.Error("Table lookup misbehaves")
	}
	db.Create("a", 1)
	if db.Table("a") == nil || db.Table("r") == nil {
		t.Error("Create lost a table")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	// The text is what encoding/csv writes for these rows: quoted fields
	// holding the separator and a line break.
	back, err := ReadCSVRows("r", 2, strings.NewReader("a,\"hello, world\"\nb,\"line\nbreak\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Row{{"a", "hello, world"}, {"b", "line\nbreak"}}; !reflect.DeepEqual(back, want) {
		t.Errorf("round trip lost rows: %q", back)
	}
}

func TestReadCSVWrongArity(t *testing.T) {
	if _, err := ReadCSVRows("r", 3, strings.NewReader("a,b\n")); err == nil {
		t.Error("want arity error")
	}
}

// sel probes snapshot s with one binding given in boundary form.
func sel(s *Snapshot, positions []int, vals ...string) []Row {
	return MaterializeRows(s.SelectBatchSym(positions, [][]sym.ID{Row(vals).Intern()})[0])
}

// Property: a selection returns exactly the rows matching the
// predicate, for random small tables.
func TestSelectAgreesWithScanProperty(t *testing.T) {
	f := func(data []uint8, p0 uint8) bool {
		tab := NewTable("r", 2)
		var rows []Row
		for _, d := range data {
			r := Row{fmt.Sprint(d % 4), fmt.Sprint((d >> 2) % 4)}
			if tab.Insert(r) {
				rows = append(rows, r)
			}
		}
		val := fmt.Sprint(p0 % 4)
		got := sel(tab.Snapshot(), []int{0}, val)
		want := 0
		for _, r := range rows {
			if r[0] == val {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentSelectInsert(t *testing.T) {
	tab := NewTable("r", 2)
	done := make(chan bool)
	go func() {
		for i := 0; i < 500; i++ {
			tab.Insert(Row{fmt.Sprint(i % 10), fmt.Sprint(i)})
		}
		done <- true
	}()
	go func() {
		for i := 0; i < 500; i++ {
			sel(tab.Snapshot(), []int{0}, fmt.Sprint(i%10))
		}
		done <- true
	}()
	<-done
	<-done
	if tab.Snapshot().Len() != 500 {
		t.Errorf("Len = %d", tab.Snapshot().Len())
	}
}

func TestEpochAdvancesPerBatch(t *testing.T) {
	tab := NewTable("r", 2)
	if tab.Epoch() != 1 {
		t.Fatalf("fresh table epoch = %d, want 1", tab.Epoch())
	}
	if n := tab.InsertAll([]Row{{"a", "1"}, {"b", "2"}}); n != 2 {
		t.Fatalf("InsertAll = %d, want 2", n)
	}
	if tab.Epoch() != 2 {
		t.Errorf("after insert batch: epoch = %d, want 2", tab.Epoch())
	}
	if tab.Insert(Row{"a", "1"}) {
		t.Error("duplicate insert reported new")
	}
	if tab.Epoch() != 2 {
		t.Errorf("no-op batch advanced epoch to %d", tab.Epoch())
	}
	if !tab.Delete(Row{"a", "1"}) {
		t.Error("delete of present row reported absent")
	}
	if tab.Epoch() != 3 {
		t.Errorf("after delete: epoch = %d, want 3", tab.Epoch())
	}
	if tab.Delete(Row{"zzz", "9"}) || tab.Epoch() != 3 {
		t.Errorf("no-op delete changed state: epoch = %d", tab.Epoch())
	}
	if tab.Snapshot().ModifiedAt().IsZero() {
		t.Error("mutated table has zero ModifiedAt")
	}
}

// TestReplayRebuildsTheTable: the commit events of a churning table,
// replayed in order onto a fresh one, rebuild its rows in its order and its
// epoch — compactions and revived rows included — and an event at or below
// the current epoch changes nothing. One event alone lands at its own epoch.
func TestReplayRebuildsTheTable(t *testing.T) {
	tab := NewTable("r", 2)
	var events []CommitEvent
	tab.SetCommitHook(func(ev CommitEvent) { events = append(events, ev) })
	rng := rand.New(rand.NewSource(7))
	batch := func() []Row {
		rows := make([]Row, 200)
		for i := range rows {
			rows[i] = Row{"k" + strconv.Itoa(rng.Intn(3000)), "v"}
		}
		return rows
	}
	for i := 0; i < 60; i++ {
		if i%3 == 2 {
			tab.DeleteAll(slices.Concat(batch(), batch(), batch(), batch(), batch()))
		} else {
			tab.InsertAll(batch())
		}
	}

	re := NewTable("r", 2)
	for i, ev := range events {
		if !re.Replay(ev) {
			t.Fatalf("event %d at epoch %d was ignored at epoch %d", i, ev.Epoch, re.Epoch())
		}
	}
	want, got := tab.Snapshot(), re.Snapshot()
	if got.Epoch() != want.Epoch() || !slices.EqualFunc(got.Rows(), want.Rows(), slices.Equal) {
		t.Fatalf("replayed table: epoch %d, %d rows; original: epoch %d, %d rows, or the order differs",
			got.Epoch(), got.Len(), want.Epoch(), want.Len())
	}
	if re.Replay(events[len(events)-1]) || re.Replay(events[0]) || re.Snapshot() != got {
		t.Error("an event at or below the epoch was applied")
	}
	last := events[len(events)-1]
	if one := NewTable("r", 2); !one.Replay(last) || one.Epoch() != last.Epoch {
		t.Errorf("a lone event landed at epoch %d, want %d", one.Epoch(), last.Epoch)
	}
}

// TestBatchIsTheVersionItLoaded: Batch is the inverse of Replay, and a
// batch that compacts the loaded version's rows out of the log, a sweep and
// fresh values issued between Batch's load and its read change none of the
// rows it reads: a sweep cannot free their IDs and hand them to the fresh
// values.
func TestBatchIsTheVersionItLoaded(t *testing.T) {
	tab := NewTable("r", 1)
	old := make([]Row, 2*compactMinDead)
	for i := range old {
		old[i] = Row{fmt.Sprintf("batch-old-%d", i)}
	}
	tab.InsertAll(old)
	batchLoaded = func() {
		batchLoaded = nil
		tab.DeleteAll(old)
		sym.Default.Sweep()
		for i := range old {
			tab.Insert(Row{fmt.Sprintf("batch-new-%d", i)})
		}
	}
	defer func() { batchLoaded = nil }()
	got := tab.Batch()
	if got.Relation != "r" || got.Arity != 1 || got.Op != OpInsert || got.Epoch != 2 || !slices.EqualFunc(got.Rows, old, slices.Equal) {
		t.Fatalf("Batch = %s/%d %s at epoch %d with %d rows; want r/1 insert at epoch 2 with the %d rows inserted",
			got.Relation, got.Arity, got.Op, got.Epoch, len(got.Rows), len(old))
	}
	re := NewTable("r", 1)
	if !re.Replay(got) || re.Epoch() != 2 || !slices.EqualFunc(re.Snapshot().Rows(), old, slices.Equal) {
		t.Fatalf("the batch replayed to epoch %d with %d rows, want epoch 2 with %d", re.Epoch(), re.Snapshot().Len(), len(old))
	}
}

func TestDeleteAndRevive(t *testing.T) {
	tab := NewTable("r", 2)
	tab.InsertAll([]Row{{"a", "1"}, {"b", "2"}, {"c", "3"}})
	if n := tab.DeleteAll([]Row{{"b", "2"}, {"nope", "0"}}); n != 1 {
		t.Fatalf("DeleteAll = %d, want 1", n)
	}
	if tab.Snapshot().Len() != 2 || tab.Snapshot().Contains(Row{"b", "2"}) {
		t.Errorf("after delete: Len=%d Contains(b)=%v", tab.Snapshot().Len(), tab.Snapshot().Contains(Row{"b", "2"}))
	}
	if got := sel(tab.Snapshot(), []int{0}, "b"); len(got) != 0 {
		t.Errorf("deleted row still selectable: %v", got)
	}
	if !tab.Insert(Row{"b", "2"}) {
		t.Error("revive insert reported duplicate")
	}
	if tab.Snapshot().Len() != 3 || !tab.Snapshot().Contains(Row{"b", "2"}) {
		t.Errorf("revive failed: Len=%d", tab.Snapshot().Len())
	}
	if got := sel(tab.Snapshot(), []int{0}, "b"); len(got) != 1 {
		t.Errorf("revived row not selectable: %v", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tab := NewTable("r", 2)
	tab.InsertAll([]Row{{"a", "1"}, {"b", "2"}})
	snap := tab.Snapshot()
	// Force the snapshot's index before mutating, then again after: both
	// reads must see the frozen version.
	if got := sel(snap, []int{0}, "a"); len(got) != 1 {
		t.Fatalf("pre-mutation select: %v", got)
	}
	tab.Delete(Row{"a", "1"})
	tab.InsertAll([]Row{{"c", "3"}, {"d", "4"}})
	if got := sel(snap, []int{0}, "a"); len(got) != 1 {
		t.Errorf("snapshot lost a deleted row: %v", got)
	}
	if got := sel(snap, []int{0}, "c"); len(got) != 0 {
		t.Errorf("snapshot sees a future row: %v", got)
	}
	if snap.Len() != 2 || tab.Snapshot().Len() != 3 {
		t.Errorf("Len: snapshot=%d (want 2) table=%d (want 3)", snap.Len(), tab.Snapshot().Len())
	}
	if snap.Epoch() == tab.Epoch() {
		t.Errorf("snapshot epoch %d did not diverge from table epoch %d", snap.Epoch(), tab.Epoch())
	}
}

func TestConcurrentMutateAndSnapshotRead(t *testing.T) {
	tab := NewTable("r", 2)
	tab.InsertAll([]Row{{"k", "v0"}})
	done := make(chan bool)
	go func() {
		for i := 1; i <= 300; i++ {
			tab.InsertAll([]Row{{"k", fmt.Sprintf("v%d", i)}})
			tab.DeleteAll([]Row{{"k", fmt.Sprintf("v%d", i-1)}})
		}
		done <- true
	}()
	go func() {
		for i := 0; i < 300; i++ {
			snap := tab.Snapshot()
			// Within one snapshot, two reads agree however writers advance.
			a := sel(snap, []int{0}, "k")
			b := sel(snap, []int{0}, "k")
			if len(a) != len(b) || snap.Len() != len(a) {
				t.Errorf("torn snapshot read: %v vs %v (len %d)", a, b, snap.Len())
				break
			}
		}
		done <- true
	}()
	<-done
	<-done
	if tab.Snapshot().Len() != 1 {
		t.Errorf("final Len = %d, want 1", tab.Snapshot().Len())
	}
}

// TestCompaction: sustained insert/delete churn rewrites the master log
// once tombstones dominate, bounding memory by the live data; snapshots
// published before the compaction keep serving their frozen version.
func TestCompaction(t *testing.T) {
	tab := NewTable("r", 2)
	var all []Row
	for i := 0; i < 3*compactMinDead; i++ {
		all = append(all, Row{fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)})
	}
	tab.InsertAll(all)
	pre := tab.Snapshot()
	tab.DeleteAll(all[:len(all)-10])

	tab.wmu.Lock()
	logLen, deadLen := tab.n, tab.dead.n
	tab.wmu.Unlock()
	if logLen != 10 || deadLen != 0 {
		t.Errorf("after churn: log=%d dead=%d, want compacted to 10 live rows", logLen, deadLen)
	}
	if tab.Snapshot().Len() != 10 {
		t.Errorf("Len = %d, want 10", tab.Snapshot().Len())
	}
	if got := sel(tab.Snapshot(), []int{0}, all[len(all)-1][0]); len(got) != 1 {
		t.Errorf("live row lost by compaction: %v", got)
	}
	if got := sel(tab.Snapshot(), []int{0}, "k0"); len(got) != 0 {
		t.Errorf("deleted row survived compaction: %v", got)
	}
	// The pre-compaction snapshot still serves everything it froze.
	if pre.Len() != len(all) {
		t.Errorf("old snapshot Len = %d, want %d", pre.Len(), len(all))
	}
	if got := sel(pre, []int{0}, "k0"); len(got) != 1 {
		t.Errorf("old snapshot lost a row after compaction: %v", got)
	}
	// Reinsert after compaction: dedup state was rebuilt correctly.
	if !tab.Insert(all[0]) || tab.Snapshot().Len() != 11 {
		t.Errorf("reinsert after compaction failed (Len=%d)", tab.Snapshot().Len())
	}
}

// TestDeleteBatchCopiesNoMap pins what a deleting batch pays for keeping
// published snapshots frozen: one copy of the tombstone bitset — a constant
// number of allocations, whether the table carries two hundred tombstones
// or two thousand — not a copy of a set that grows with them.
func TestDeleteBatchCopiesNoMap(t *testing.T) {
	const live, batch, runs = 4096, 64, 5
	row := func(i int) Row { return Row{"k" + strconv.Itoa(i), "v" + strconv.Itoa(i%97)} }
	allocs := map[int]float64{}
	for _, dead := range []int{200, 2000} {
		tab := NewTable("r", 2)
		var rows []Row
		for i := 0; i < live+dead; i++ {
			rows = append(rows, row(i))
		}
		tab.InsertAll(rows)
		if n := tab.DeleteAll(rows[:dead]); n != dead {
			t.Fatalf("deleted %d rows of %d", n, dead)
		}
		next := dead
		allocs[dead] = testing.AllocsPerRun(runs, func() {
			if n := tab.DeleteAll(rows[next : next+batch]); n != batch {
				t.Fatalf("a batch of %d deleted %d rows", batch, n)
			}
			next += batch
		})
		if tab.Snapshot().Len() != live-(runs+1)*batch {
			t.Fatalf("%d live rows after the batches", tab.Snapshot().Len())
		}
	}
	// The bitset and the snapshot — and nothing per tombstone.
	if allocs[2000] > 2 || allocs[2000] != allocs[200] {
		t.Errorf("a %d-row DeleteAll makes %.0f allocations at 2000 tombstones and %.0f at 200, want the same and at most 2", batch, allocs[2000], allocs[200])
	}
}
