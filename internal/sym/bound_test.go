package sym_test

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"toorjah"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// settledHeap is the live heap after two collections.
func settledHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestChurnKeepsSymbolsBounded: memory follows the live data under endless
// ingest churn. One table takes 20 000 batches of 64 rows of fresh values,
// and once it holds window batches it deletes the oldest with every insert,
// so 1024 rows — 2048 values — stay live. At every tenth of the run the
// symbol table holds at most twice the live values plus a constant, and the
// heap after two collections stays within heapMargin of what it was at the
// first tenth. Without sweeps the table ends at 2.56 million values.
func TestChurnKeepsSymbolsBounded(t *testing.T) {
	const (
		batches    = 20000
		batchRows  = 64
		window     = 16
		liveValues = 2 * window * batchRows
		heapMargin = 1 << 20
	)
	runtime.GC()
	sym.Default.Sweep()
	base := sym.Default.Len()
	// Between sweeps up to max(kept, SweepFloor) IDs are issued; what a
	// sweep keeps is base, the live values and the values of the tombstoned
	// rows compaction has not dropped yet — at most as many rows as are live,
	// or its 1024-row minimum.
	bound := 2*liveValues + 2*base + sym.SweepFloor + 2*1024
	batch := func(b int) []storage.Row {
		rows := make([]storage.Row, batchRows)
		for i := range rows {
			s := strconv.Itoa(b) + "_" + strconv.Itoa(i)
			rows[i] = storage.Row{"k" + s, "v" + s}
		}
		return rows
	}
	tab := storage.NewTable("churn", 2)
	var firstHeap uint64
	for b := 0; b < batches; b++ {
		tab.InsertAll(batch(b))
		if b >= window {
			tab.DeleteAll(batch(b - window))
		}
		if (b+1)%(batches/10) != 0 {
			continue
		}
		if n := sym.Default.Len(); n > bound {
			t.Fatalf("after %d batches the symbol table holds %d values for %d live ones (base %d), bound %d", b+1, n, liveValues, base, bound)
		}
		heap := settledHeap()
		t.Logf("%d batches: %d symbols, settled heap %d KiB", b+1, sym.Default.Len(), heap>>10)
		if firstHeap == 0 {
			firstHeap = heap
		} else if heap > firstHeap+heapMargin {
			t.Fatalf("after %d batches the settled heap is %d B, %d B more than at the first tenth (margin %d)", b+1, heap, heap-firstHeap, heapMargin)
		}
	}
	if got := tab.Snapshot().Len(); got != window*batchRows {
		t.Fatalf("the table holds %d rows, want %d", got, window*batchRows)
	}
	if sym.Default.Stats().Freed == 0 {
		t.Fatal("no sweep freed anything")
	}
}

// TestFreshConstantsAreFreed: a read-only client asking for fresh keys does
// not grow the symbol table. 10 000 point queries, each for a key no source
// holds, intern their constant under the execution's hold, unpinned, and
// nothing keeps it: the plan cache keeps the shape, not the constant. So the
// table never holds more than a sweep lets accumulate, whatever the number
// of queries.
func TestFreshConstantsAreFreed(t *testing.T) {
	sch, err := toorjah.ParseSchema("r1^io(A, B)")
	if err != nil {
		t.Fatal(err)
	}
	sys := toorjah.NewSystem(sch)
	if err := sys.BindRows("r1", toorjah.Row{"present", "b"}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	sym.Default.Sweep()
	base := sym.Default.Len()
	for i := 0; i < 10000; i++ {
		q, err := sys.Prepare(fmt.Sprintf("q(B) :- r1(absent%d, B)", i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Answers.Len() != 0 {
			t.Fatalf("query %d answered %v", i, res.SortedAnswers())
		}
	}
	if grown, slack := sym.Default.Len()-base, max(base, sym.SweepFloor)+16; grown > slack {
		t.Fatalf("10000 queries for absent keys grew the symbol table by %d values, want at most %d", grown, slack)
	}
}

// TestOverdueSweepDrainsHolds: holds that overlap without a break still let
// a sweep run. While one hold stays active, joined holds issue four times
// the sweep floor of fresh values, which makes a sweep overdue: a new hold
// then waits, and once the active hold ends the sweep runs, frees what the
// joined holds interned, and the waiting hold goes ahead.
func TestOverdueSweepDrainsHolds(t *testing.T) {
	tab := sym.NewTable()
	outer := tab.Hold()
	for i := 0; i < 4*sym.SweepFloor; i++ {
		j := tab.Join() // inside outer: never waits
		j.Intern("fresh" + strconv.Itoa(i))
		j.Release()
	}
	got := make(chan sym.Hold)
	go func() { got <- tab.Hold() }()
	select {
	case h := <-got:
		h.Release()
		t.Fatal("a new hold went ahead while a sweep was overdue and a hold active")
	case <-time.After(sym.DrainWait / 5):
	}
	if n := tab.Stats().Sweeps; n != 0 {
		t.Fatalf("%d sweeps ran while a hold was active", n)
	}
	outer.Release()
	h := <-got
	defer h.Release()
	if st := tab.Stats(); st.Sweeps != 1 || st.Freed != 4*sym.SweepFloor || tab.Len() != 0 {
		t.Fatalf("after the drain: %+v, %d values live; want one sweep freeing all %d", st, tab.Len(), 4*sym.SweepFloor)
	}
}

// TestOverdueSweepWaitIsBounded: a hold that lasts — an execution whose
// callback blocks, a write batch taken inside an execution's callback —
// does not stall every new hold for as long as it lasts, nor deadlock one
// its own goroutine takes. With a sweep overdue and one hold active, a new
// hold on the same goroutine goes ahead after DrainWait, the sweep is
// postponed, and holds after it do not wait; the sweep runs once the holds
// end.
func TestOverdueSweepWaitIsBounded(t *testing.T) {
	tab := sym.NewTable()
	outer := tab.Hold()
	for i := 0; i < 4*sym.SweepFloor; i++ {
		j := tab.Join()
		j.Intern("fresh" + strconv.Itoa(i))
		j.Release()
	}
	start := time.Now()
	inner := tab.Hold() // what a write batch inside outer's callback takes
	if waited := time.Since(start); waited < sym.DrainWait {
		t.Fatalf("the inner hold waited %v for an overdue sweep, want at least %v", waited, sym.DrainWait)
	}
	start = time.Now()
	next := tab.Hold()
	if waited := time.Since(start); waited >= sym.DrainWait {
		t.Errorf("a hold after the postponement waited %v", waited)
	}
	if st := tab.Stats(); st.Postponed != 1 || st.Sweeps != 0 {
		t.Fatalf("while the holds last: %+v, want one postponement and no sweep", st)
	}
	next.Release()
	inner.Release()
	outer.Release()
	if st := tab.Stats(); st.Sweeps != 1 || tab.Len() != 0 {
		t.Fatalf("after the holds ended: %+v, %d values live; want one sweep freeing all", st, tab.Len())
	}
}
