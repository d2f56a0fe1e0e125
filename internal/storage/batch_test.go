package storage

import (
	"fmt"
	"reflect"
	"testing"

	"toorjah/internal/sym"
)

// TestSelectBatchSym: one batch must agree with the same bindings probed one
// at a time, including misses and a repeated binding.
func TestSelectBatchSym(t *testing.T) {
	tab := NewTable("r", 2)
	for i := 0; i < 10; i++ {
		tab.Insert(Row{fmt.Sprintf("a%d", i%3), fmt.Sprintf("b%d", i)})
	}
	snap := tab.Snapshot()
	var bindings [][]sym.ID
	for _, v := range []string{"a0", "a1", "nope", "a2", "a0"} {
		bindings = append(bindings, Row{v}.Intern())
	}
	got := snap.SelectBatchSym([]int{0}, bindings)
	if len(got) != len(bindings) {
		t.Fatalf("got %d results for %d bindings", len(got), len(bindings))
	}
	for i, b := range bindings {
		want := snap.SelectBatchSym([]int{0}, [][]sym.ID{b})[0]
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("binding %v: batch %v, single %v", b, got[i], want)
		}
	}
	if len(got[0]) != 4 || len(got[2]) != 0 {
		t.Errorf("a0 matched %d rows (want 4), nope matched %d (want 0)", len(got[0]), len(got[2]))
	}
}

func TestSelectBatchSymFreeRelation(t *testing.T) {
	tab := NewTable("free", 1)
	tab.Insert(Row{"x"})
	tab.Insert(Row{"y"})
	got := tab.Snapshot().SelectBatchSym(nil, [][]sym.ID{{}, {}})
	if len(got) != 2 || len(got[0]) != 2 || len(got[1]) != 2 {
		t.Fatalf("free-relation batch = %v, want every row twice", got)
	}
}

func TestSelectBatchSymArityMismatchPanics(t *testing.T) {
	tab := NewTable("r", 2)
	defer func() {
		if recover() == nil {
			t.Error("a binding wider than the position set must panic")
		}
	}()
	tab.Snapshot().SelectBatchSym([]int{0}, [][]sym.ID{Row{"a", "b"}.Intern()})
}

// BenchmarkSelectBatchSym times the probe primitive per binding over a
// 600-row relation indexed on two input positions — the shape of q2's
// rev_icde accesses, most of which match nothing — one binding per call
// and sixteen (the executors' default batch): the difference is the
// per-batch work (signature, lock, result slice) amortised.
func BenchmarkSelectBatchSym(b *testing.B) {
	tab := NewTable("r", 3)
	rows := make([]Row, 600)
	for i := range rows {
		rows[i] = Row{fmt.Sprintf("p%d", i%40), fmt.Sprintf("q%d", i/40), fmt.Sprintf("v%d", i)}
	}
	tab.InsertAll(rows)
	snap := tab.Snapshot()
	positions := []int{0, 1}
	// 1600 bindings; 600 of them match one row each.
	var bindings [][]sym.ID
	for p := 0; p < 40; p++ {
		for q := 0; q < 40; q++ {
			bindings = append(bindings, Row{fmt.Sprintf("p%d", p), fmt.Sprintf("q%d", q)}.Intern())
		}
	}
	snap.SelectBatchSym(positions, bindings[:1]) // build the index outside the timing
	for _, size := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			b.ReportAllocs()
			matched := 0
			for i := 0; i < b.N; i += size {
				from := i % len(bindings)
				for _, rows := range snap.SelectBatchSym(positions, bindings[from:from+size]) {
					matched += len(rows)
				}
			}
			if matched == 0 {
				b.Fatal("no binding matched")
			}
		})
	}
}
