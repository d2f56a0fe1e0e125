package source

import (
	"context"
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
