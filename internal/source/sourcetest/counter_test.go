package sourcetest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
)

func revSource(t *testing.T) *source.TableSource {
	t.Helper()
	rel := schema.MustRelation("rev", "ooi", "Person", "ConfName", "Year")
	tab := storage.NewTable("rev", 3)
	tab.Insert(storage.Row{"alice", "icde", "2008"})
	tab.Insert(storage.Row{"bob", "icde", "2008"})
	tab.Insert(storage.Row{"alice", "vldb", "2007"})
	s, err := source.NewTableSource(rel, tab)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// access probes w with one boundary-form binding: a batch of one through
// ProbeStrings.
func access(w source.Wrapper, binding ...string) ([]storage.Row, error) {
	rows, err := source.ProbeStrings(context.Background(), w, [][]string{binding})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

func TestCounter(t *testing.T) {
	c := NewCounter(revSource(t), true)
	access(c, "2008")
	access(c, "2008") // repeated probe still counts as an access
	access(c, "2007")
	st := c.Stats()
	if st.Accesses != 3 {
		t.Errorf("Accesses = %d", st.Accesses)
	}
	if st.Tuples != 5 {
		t.Errorf("Tuples = %d", st.Tuples)
	}
	if c.DistinctAccesses() != 2 {
		t.Errorf("DistinctAccesses = %d", c.DistinctAccesses())
	}
	log := c.Log()
	if len(log) != 3 || log[0].String() != "rev(2008)" {
		t.Errorf("Log = %v", log)
	}
	set := c.AccessSet()
	if !set[Access{Relation: "rev", Binding: []string{"2008"}}.Key()] {
		t.Error("AccessSet missing key")
	}
	c.Reset()
	if c.Stats().Accesses != 0 || c.DistinctAccesses() != 0 || len(c.Log()) != 0 {
		t.Error("Reset incomplete")
	}
	if source.EpochOf(c) != source.EpochOf(c.inner) {
		t.Error("Counter does not forward the data epoch")
	}
}

// TestCounterAuditedAgreesWithPlain: the audit (log and distinct set) is
// bookkeeping beside the counters, never part of them — a plain and an
// audited counter report the same Stats for the same probes — and a plain
// counter answers the audit questions with "not tracked", not with whatever
// an earlier state left behind.
func TestCounterAuditedAgreesWithPlain(t *testing.T) {
	plain, audited := NewCounter(revSource(t), false), NewCounter(revSource(t), true)
	batches := [][][]string{
		{{"2008"}, {"2007"}, {"2008"}},
		{{"1999"}},
		{{"2007"}, {"2007"}},
	}
	for _, c := range []*Counter{plain, audited} {
		for _, b := range batches {
			if _, err := source.ProbeStrings(context.Background(), c, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p, a := plain.Stats(), audited.Stats(); p != a {
		t.Errorf("plain counter reports %+v, audited %+v", p, a)
	}
	if want := (source.Stats{Accesses: 6, Batches: 3, Tuples: 7}); audited.Stats() != want {
		t.Errorf("Stats = %+v, want %+v", audited.Stats(), want)
	}
	if got := audited.DistinctAccesses(); got != 3 {
		t.Errorf("audited DistinctAccesses = %d, want 3", got)
	}
	if got := plain.DistinctAccesses(); got != -1 {
		t.Errorf("plain DistinctAccesses = %d, want -1 (not tracked)", got)
	}
	if set := plain.AccessSet(); set != nil {
		t.Errorf("plain AccessSet = %v, want nil (not tracked)", set)
	}
	if log := plain.Log(); len(log) != 0 {
		t.Errorf("plain Log = %v, want empty", log)
	}
	plain.Reset()
	if got := plain.DistinctAccesses(); got != -1 {
		t.Errorf("plain DistinctAccesses after Reset = %d, want -1", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter(revSource(t), true)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				access(c, fmt.Sprint(2000+j%5))
			}
		}(i)
	}
	wg.Wait()
	if got := c.Stats().Accesses; got != 400 {
		t.Errorf("Accesses = %d, want 400", got)
	}
	if got := c.DistinctAccesses(); got != 5 {
		t.Errorf("DistinctAccesses = %d, want 5", got)
	}
}

// TestCounterBatchAccounting: a batch of N bindings counts as N accesses
// but a single round trip, and every binding lands in the log and the
// distinct set.
func TestCounterBatchAccounting(t *testing.T) {
	src := New(t).Source
	c := NewCounter(src, true)
	rows, err := source.ProbeStrings(context.Background(), c, [][]string{{"a0"}, {"a1"}, {"a0"}})
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
	src := New(t).Source
	errDown := errors.New("down")
	flaky := NewFlaky(src, 2, errDown)
	_, err := source.ProbeStrings(context.Background(), flaky, [][]string{{"a0"}, {"a1"}, {"a2"}})
	if !errors.Is(err, errDown) {
		t.Errorf("err = %v, want %v", err, errDown)
	}
	if _, err := access(flaky, "a0"); !errors.Is(err, errDown) {
		t.Errorf("access after the budget ran out: err = %v, want %v", err, errDown)
	}
}

func TestAccessKeyDistinguishesRelations(t *testing.T) {
	a := Access{Relation: "r", Binding: []string{"x"}}
	b := Access{Relation: "rx", Binding: []string{}}
	if a.Key() == b.Key() {
		t.Error("access keys collide")
	}
}

func TestCounted(t *testing.T) {
	reg := source.NewRegistry()
	reg.Bind(revSource(t))
	counted, counters := Counted(reg, false)
	access(counted.Source("rev"), "2008")
	if counters["rev"].Stats().Accesses != 1 {
		t.Error("counted registry not recording")
	}
	// Original registry unaffected.
	if _, ok := reg.Source("rev").(*Counter); ok {
		t.Error("Counted mutated the original registry")
	}
}
