package source

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"toorjah/internal/schema"
	"toorjah/internal/storage"
)

func batchFixture(t *testing.T) (*schema.Relation, *TableSource) {
	t.Helper()
	sch := schema.MustParse("r^io(A, B)")
	rel := sch.Relation("r")
	tab := storage.NewTable("r", 2)
	for i := 0; i < 12; i++ {
		tab.Insert(storage.Row{fmt.Sprintf("a%d", i%4), fmt.Sprintf("b%d", i)})
	}
	src, err := NewTableSource(rel, tab)
	if err != nil {
		t.Fatal(err)
	}
	return rel, src
}

// TestTableSourceProbeBatch: a batch is element-wise identical to probing
// one binding at a time.
func TestTableSourceProbeBatch(t *testing.T) {
	_, src := batchFixture(t)
	bindings := [][]string{{"a0"}, {"a3"}, {"missing"}, {"a1"}}
	batch, err := ProbeStrings(context.Background(), src, bindings)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bindings {
		single, err := access(src, b...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], single) {
			t.Errorf("binding %v: batch %v, single %v", b, batch[i], single)
		}
	}
	if _, err := access(src, "a0", "extra"); err == nil {
		t.Error("mis-sized binding in a batch must be rejected")
	}
}

// TestCounterBatchAccounting: a batch of N bindings counts as N accesses
// but a single round trip, and every binding lands in the log and the
// distinct set.
func TestCounterBatchAccounting(t *testing.T) {
	_, src := batchFixture(t)
	c := NewCounter(src, true)
	rows, err := ProbeStrings(context.Background(), c, [][]string{{"a0"}, {"a1"}, {"a0"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	st := c.Stats()
	if st.Accesses != 3 {
		t.Errorf("Accesses = %d, want 3 (a batch is N accesses)", st.Accesses)
	}
	if st.Batches != 1 {
		t.Errorf("Batches = %d, want 1 (one round trip)", st.Batches)
	}
	if got := c.DistinctAccesses(); got != 2 {
		t.Errorf("DistinctAccesses = %d, want 2", got)
	}
	if got := len(c.Log()); got != 3 {
		t.Errorf("log length = %d, want 3", got)
	}
	// A single access is a round trip of one: Batches tracks it too.
	if _, err := access(c, "a2"); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Accesses != 4 || st.Batches != 2 {
		t.Errorf("after single access: %+v, want Accesses=4 Batches=2", st)
	}
}

// TestFlakyBatchFailsWhole: the batch that overruns the failure budget
// fails as a whole and exhausts it, like sequential probing would.
func TestFlakyBatchFailsWhole(t *testing.T) {
	_, src := batchFixture(t)
	errDown := errors.New("down")
	flaky := NewFlaky(src, 2, errDown)
	_, err := ProbeStrings(context.Background(), flaky, [][]string{{"a0"}, {"a1"}, {"a2"}})
	if !errors.Is(err, errDown) {
		t.Errorf("err = %v, want %v", err, errDown)
	}
	if _, err := access(flaky, "a0"); !errors.Is(err, errDown) {
		t.Errorf("access after the budget ran out: err = %v, want %v", err, errDown)
	}
}
