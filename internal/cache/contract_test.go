package cache

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"toorjah/internal/source/sourcetest"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// TestProbeContract runs source.Wrapper's contract test over the cache
// wrapper, on each of the four ways it fills a slot: a hit, a miss its own
// round trip fetches, an access collapsed onto another request's flight,
// and one orphaned when that flight fails.
func TestProbeContract(t *testing.T) {
	t.Run("own miss, then hit", func(t *testing.T) {
		f := sourcetest.New(t)
		ctr := sourcetest.NewCounter(f.Source, false)
		c := New(Options{})
		f.Contract(t, c.Wrap(ctr), func() int { return ctr.Stats().Accesses })
		if st := c.Snapshot()["r"]; st.Hits < int64(len(f.Batch())) {
			t.Errorf("the second probe was not served from the cache: %+v", st)
		}
		if got := ctr.Stats().Accesses; got != 5 {
			t.Errorf("source accesses = %d, want 5: the batch's distinct bindings, once", got)
		}
		// The refused blocks were refused before any access was classified:
		// what the cache counted is the two good batches of six.
		if st := c.Snapshot()["r"]; st.Hits+st.Misses+st.Collapsed != 2*int64(len(f.Dirty())) {
			t.Errorf("the cache classified %+v, want the accesses of two batches of %d", st, len(f.Dirty()))
		}
	})

	for name, fail := range map[string]func() error{
		"collapsed onto another request's flight": nil,
		"orphaned by a failed flight":             func() error { return errors.New("boom") },
	} {
		t.Run(name, func(t *testing.T) {
			f := sourcetest.New(t)
			ctr := sourcetest.NewCounter(f.Source, false)
			gate := &gateWrapper{Wrapper: ctr, release: make(chan struct{}), failFirst: fail}
			c := New(Options{})
			w := c.Wrap(gate)
			n := int64(len(f.Batch()))

			owner := make(chan error, 1)
			ownerOut := f.Dirty()
			go func() { owner <- w.Probe(context.Background(), f.Batch(), ownerOut) }()
			awaitClassified(t, c, n) // the owner's round trip is held by the gate

			waiter := make(chan error, 1)
			waiterOut := f.Dirty()
			go func() { waiter <- w.Probe(context.Background(), f.Batch(), waiterOut) }()
			if st := awaitClassified(t, c, 2*n); st.Collapsed < n {
				t.Fatalf("the second request did not join the flight: %+v", st)
			}
			close(gate.release)

			if err := <-owner; (err != nil) != (fail != nil) {
				t.Fatalf("owner: err = %v", err)
			} else if err == nil {
				f.Check(t, "the flight's owner", ownerOut)
			}
			if err := <-waiter; err != nil {
				t.Fatalf("waiter: %v", err)
			}
			f.Check(t, "the waiter", waiterOut)
			// The flight's slots are the cache's: a third request is served
			// from what was stored, whatever the first two callers do to theirs.
			clear(ownerOut)
			clear(waiterOut)
			out := f.Dirty()
			if err := w.Probe(context.Background(), f.Batch(), out); err != nil {
				t.Fatal(err)
			}
			f.Check(t, "a later hit", out)
		})
	}
}

// TestWarmHitAllocatesNothing is the cache's counterpart of the source's
// TestProbeMissAllocatesNothing: a warm round trip of sixteen accesses that
// the cache answers whole, through Wrap over a table source and into slots
// the caller owns, allocates nothing when no trace is recording.
func TestWarmHitAllocatesNothing(t *testing.T) {
	f := sourcetest.New(t)
	ctr := sourcetest.NewCounter(f.Source, false)
	w := New(Options{}).Wrap(ctr)
	bindings, out := make([]sym.ID, 16), make([][]storage.IRow, 16)
	for i := range bindings {
		bindings[i] = sym.Intern("a" + strconv.Itoa(i)) // a0…a3 match rows, the rest nothing
	}
	ctx := context.Background()
	probe := func() {
		if err := w.Probe(ctx, bindings, out); err != nil {
			t.Fatal(err)
		}
	}
	probe() // warm: every binding misses once and is stored
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		t.Errorf("a warm round trip of %d hits makes %.0f allocations, want none", len(bindings), allocs)
	}
	if got := ctr.Stats().Accesses; got != len(bindings) {
		t.Errorf("the source saw %d accesses, want %d: each binding once, on the warm-up", got, len(bindings))
	}
}
