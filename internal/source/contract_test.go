package source_test

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// TestProbeContract runs the one contract test over this package's
// implementations of Wrapper.
func TestProbeContract(t *testing.T) {
	t.Run("table source, live", func(t *testing.T) {
		f := sourcetest.New(t)
		f.Contract(t, f.Source, nil)
	})
	t.Run("table source, pinned", func(t *testing.T) {
		f := sourcetest.New(t)
		pinned := f.Source.Snapshot()
		f.Table.Insert(storage.Row{"a0", "after the pin"}) // must not show
		f.Contract(t, pinned, nil)
	})
	t.Run("counter", func(t *testing.T) {
		for _, audited := range []bool{false, true} {
			f := sourcetest.New(t)
			c := sourcetest.NewCounter(f.Source, audited)
			f.Contract(t, c, func() int { return c.Stats().Accesses })
			if got, want := c.Stats(), (source.Stats{Accesses: 12, Batches: 2, Tuples: 24}); got != want {
				t.Errorf("audited %v: two batches of six counted as %+v, want %+v", audited, got, want)
			}
		}
	})
	t.Run("flaky", func(t *testing.T) {
		f := sourcetest.New(t)
		errDown := errors.New("down")
		c := sourcetest.NewCounter(f.Source, false)
		f.Contract(t, sourcetest.NewFlaky(c, 1<<20, errDown), func() int { return c.Stats().Accesses })
		// The batch that overruns the budget fails whole: nothing reaches the
		// source, not even the accesses the budget still covered, and the
		// caller's slots are not to be read.
		c.Reset()
		flaky := sourcetest.NewFlaky(c, 9, errDown)
		out := f.Dirty()
		if err := flaky.Probe(context.Background(), f.Batch(), out); err != nil {
			t.Fatal(err)
		}
		f.Check(t, "within the budget", out)
		if err := flaky.Probe(context.Background(), f.Batch(), f.Dirty()); !errors.Is(err, errDown) {
			t.Errorf("the overrunning batch: err = %v, want %v", err, errDown)
		}
		if got := c.Stats().Accesses; got != 6 {
			t.Errorf("the failing batch reached the source: %d accesses, want 6", got)
		}
	})
}

// TestProbeFreeRelationSlots: a free relation has one access, the empty
// binding, so its block is empty and a batch of them is its slots; every
// slot is the one shared slice of the table's live rows — assigned over
// whatever the slot held, allocated once per table version and not per
// binding.
func TestProbeFreeRelationSlots(t *testing.T) {
	tab := storage.NewTable("free", 2)
	tab.InsertAll([]storage.Row{{"x", "y"}, {"z", "w"}, {"gone", "soon"}})
	tab.Delete(storage.Row{"gone", "soon"})
	src, err := source.NewTableSource(schema.MustRelation("free", "oo", "A", "B"), tab)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]source.Wrapper{"live": src, "pinned": src.Snapshot()} {
		out := [][]storage.IRow{{storage.Row{"stale", "row"}.Intern()}, nil, {storage.Row{"stale", "row"}.Intern()}}
		if err := w.Probe(context.Background(), nil, out); err != nil {
			t.Fatal(err)
		}
		for i, rows := range out {
			if len(rows) != 2 || &rows[0] != &out[0][0] {
				t.Errorf("%s: slot %d holds %v, want the shared slice of the two live rows", name, i, storage.MaterializeRows(rows))
			}
		}
		if err := w.Probe(context.Background(), []sym.ID{sym.Intern("x")}, out[:2]); err == nil {
			t.Errorf("%s: a binding of one value for a free relation was accepted", name)
		}
	}
}

// TestProbeMissAllocatesNothing pins the price of the paper's unit of cost
// on a local table: a warm round trip of sixteen accesses that match
// nothing, through the counter every execution wraps its sources in and
// into slots the caller owns, allocates nothing — no key, no result slice.
func TestProbeMissAllocatesNothing(t *testing.T) {
	f := sourcetest.New(t)
	w := sourcetest.NewCounter(f.Source.Snapshot(), false)
	bindings, out := make([]sym.ID, 16), make([][]storage.IRow, 16)
	for i := range bindings {
		bindings[i] = sym.Intern("miss" + strconv.Itoa(i))
	}
	ctx := context.Background()
	probe := func() {
		if err := w.Probe(ctx, bindings, out); err != nil {
			t.Fatal(err)
		}
	}
	probe() // warm: build the index
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		t.Errorf("a warm round trip of %d misses makes %.0f allocations, want none", len(bindings), allocs)
	}
	if st := w.Stats(); st.Tuples != 0 || st.Accesses != 102*len(bindings) {
		t.Errorf("the round trips counted as %+v", st)
	}
}
