// Package sourcetest holds the one test of source.Wrapper's contract, for
// every package that implements the interface to run over its own
// implementation: who owns a round trip's memory is decided in one place
// (the interface's documentation), so it is checked by one piece of code.
// It also holds the decorators tests bind in a source's place: Counter,
// which audits what reaches the source, and Flaky, which makes it fail.
package sourcetest

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// Fixture is a relation r^io(A, B) of twelve rows — a0…a3 with three B
// values each — behind a live table source, and a batch over it that mixes
// hits, misses, a repeated binding and a value interned for the batch alone.
type Fixture struct {
	Rel    *schema.Relation
	Table  *storage.Table
	Source *source.TableSource
}

// New builds the fixture.
func New(t testing.TB) *Fixture {
	t.Helper()
	rel := schema.MustRelation("r", "io", "A", "B")
	tab := storage.NewTable("r", 2)
	for i := 0; i < 12; i++ {
		tab.Insert(storage.Row{fmt.Sprintf("a%d", i%4), fmt.Sprintf("b%d", i)})
	}
	src, err := source.NewTableSource(rel, tab)
	if err != nil {
		t.Fatal(err)
	}
	return &Fixture{Rel: rel, Table: tab, Source: src}
}

// batch is what Batch binds A to; want is what each binding extracts.
var (
	batch = []string{"a0", "no-such-a", "a3", "a0", "sourcetest: interned for this batch only", "a1"}
	want  = [][]storage.Row{
		{{"a0", "b0"}, {"a0", "b4"}, {"a0", "b8"}},
		nil,
		{{"a3", "b3"}, {"a3", "b7"}, {"a3", "b11"}},
		{{"a0", "b0"}, {"a0", "b4"}, {"a0", "b8"}},
		nil,
		{{"a1", "b1"}, {"a1", "b5"}, {"a1", "b9"}},
	}
)

// Batch returns the fixture's batch as a block, one ID per binding, in
// memory of its own each time.
func (f *Fixture) Batch() []sym.ID {
	out := make([]sym.ID, len(batch))
	for i, v := range batch {
		out[i] = sym.Intern(v)
	}
	return out
}

// Dirty returns result slots for Batch that look recycled: each holds a row
// some earlier round trip left there.
func (f *Fixture) Dirty() [][]storage.IRow {
	out := make([][]storage.IRow, len(batch))
	for i := range out {
		out[i] = []storage.IRow{storage.Row{"stale", "row"}.Intern()}
	}
	return out
}

// Check reports every slot that does not hold what its binding of Batch
// extracts: a slot left as it was, and a miss answered with anything but
// nil, are wrong answers to a caller that recycles its slots.
func (f *Fixture) Check(t testing.TB, when string, out [][]storage.IRow) {
	t.Helper()
	if len(out) != len(want) {
		t.Fatalf("%s: %d slots for %d bindings", when, len(out), len(want))
	}
	for i, rows := range out {
		switch {
		case want[i] == nil && rows != nil:
			t.Errorf("%s: slot %d (binding %q matches nothing) holds %v, want nil", when, i, batch[i], storage.MaterializeRows(rows))
		case want[i] != nil && !reflect.DeepEqual(storage.MaterializeRows(rows), want[i]):
			t.Errorf("%s: slot %d (binding %q) holds %v, want %v", when, i, batch[i], storage.MaterializeRows(rows), want[i])
		}
	}
}

// Contract holds w — some stack of wrappers over f.Source — to the Probe
// contract. accesses, when non-nil, reads whatever access count the stack
// keeps; a refused batch must not move it. It is a test's body, so there
// is no caller's context to thread.
func (f *Fixture) Contract(t *testing.T, w source.Wrapper, accesses func() int) {
	t.Helper()
	ctx := context.Background()
	count := func() int {
		if accesses == nil {
			return 0
		}
		return accesses()
	}

	// Refused whole, before anything is probed: a block that is not one ID
	// per slot, however the two disagree. Every slot is left as it was, and
	// nothing reaches the source.
	before := count()
	for name, c := range map[string]struct {
		block []sym.ID
		out   [][]storage.IRow
	}{
		"with fewer slots than bindings": {f.Batch(), f.Dirty()[1:]},
		"with more slots than bindings":  {f.Batch(), append(f.Dirty(), nil)},
		"one ID short":                   {f.Batch()[1:], f.Dirty()},
		"one ID extra":                   {append(f.Batch(), f.Batch()[0]), f.Dirty()},
		"empty":                          {nil, f.Dirty()},
	} {
		held := slices.Clone(c.out)
		if err := w.Probe(ctx, c.block, c.out); err == nil {
			t.Errorf("a block %s was accepted", name)
		}
		for i := range c.out {
			if !reflect.DeepEqual(c.out[i], held[i]) {
				t.Errorf("a block %s was refused, but slot %d now holds %v", name, i, storage.MaterializeRows(c.out[i]))
			}
		}
	}
	if got := count(); got != before {
		t.Errorf("refused blocks reached the source: %d accesses, %d before them", got, before)
	}

	// Every slot is assigned, whatever it held.
	bindings, out := f.Batch(), f.Dirty()
	if err := w.Probe(ctx, bindings, out); err != nil {
		t.Fatal(err)
	}
	f.Check(t, "first probe", out)
	if got := count(); got > before+len(batch) {
		t.Errorf("a batch of %d took the access count from %d to %d", len(batch), before, got)
	}

	// The caller reuses both slices right away; nothing the implementation
	// kept may alias them.
	for i := range bindings {
		bindings[i] = sym.Intern("a2")
		out[i] = []storage.IRow{storage.Row{"scribbled", "over"}.Intern()}
	}
	clear(bindings)
	out = f.Dirty()
	if err := w.Probe(ctx, f.Batch(), out); err != nil {
		t.Fatal(err)
	}
	f.Check(t, "second probe, after the caller reused the first one's memory", out)
}
