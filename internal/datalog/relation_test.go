package datalog

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"toorjah/internal/sym"
)

// relationModel is what a Relation is held to: the distinct tuples in
// insertion order, membership through a map on their rendering.
type relationModel struct {
	tuples []Tuple
	seen   map[string]bool
}

func (m *relationModel) insert(t Tuple) bool {
	if m.seen[fmt.Sprint(t)] {
		return false
	}
	m.seen[fmt.Sprint(t)] = true
	m.tuples = append(m.tuples, slices.Clone(t))
	return true
}

func (m *relationModel) lookup(positions []int, vals []sym.ID) []Tuple {
	var out []Tuple
tuples:
	for _, t := range m.tuples {
		for i, p := range positions {
			if t[p] != vals[i] {
				continue tuples
			}
		}
		out = append(out, t)
	}
	return out
}

// TestRelationMatchesMapModel drives a relation and the model side by side
// through what the executors do to a cache relation and more: arities 0–5,
// an index asked for while the relation is empty and others once it is
// full, some two thousand inserts — half of them duplicates, half through
// InsertCopy from a buffer that is overwritten afterwards — across eight
// doublings of the tables, then inserts with lookups between them, then
// Reset and the same again under another arity.
func TestRelationMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRelation("r", 0)
	for round, arity := range []int{3, 0, 5, 1, 2, 4, 3} {
		r.Reset()
		r.Name, r.Arity = fmt.Sprintf("r%d", round), arity
		model := &relationModel{seen: map[string]bool{}}
		// IDs from a range that makes about half of 2000 draws repeat a tuple.
		span := []int{0: 1, 1: 1500, 2: 40, 3: 12, 4: 7, 5: 5}[arity]
		draw := func(n int) Tuple {
			t := make(Tuple, n)
			for i := range t {
				t[i] = sym.ID(1 + rng.Intn(span))
			}
			return t
		}
		positionLists := [][]int{}
		for p := 0; p < arity; p++ {
			positionLists = append(positionLists, []int{p})
		}
		if arity >= 2 {
			positionLists = append(positionLists, []int{0, arity - 1}, []int{arity - 1, 0})
		}
		if arity >= 3 {
			all := make([]int, arity)
			for i := range all {
				all[i] = i
			}
			positionLists = append(positionLists, all)
		}
		check := func(when string) {
			t.Helper()
			if r.Len() != len(model.tuples) {
				t.Fatalf("arity %d, %s: Len = %d, model holds %d", arity, when, r.Len(), len(model.tuples))
			}
			for i, want := range model.tuples {
				if !slices.Equal(r.Tuples()[i], want) {
					t.Fatalf("arity %d, %s: tuple %d = %v, model %v", arity, when, i, r.Tuples()[i], want)
				}
			}
			for n := 0; n < 300; n++ {
				probe := draw(arity)
				if got, want := r.Contains(probe), model.seen[fmt.Sprint(probe)]; got != want {
					t.Fatalf("arity %d, %s: Contains(%v) = %v, model %v", arity, when, probe, got, want)
				}
			}
			for _, positions := range positionLists {
				for n := 0; n < 100; n++ {
					vals := draw(len(positions))
					got, want := r.Lookup(positions, vals), model.lookup(positions, vals)
					if !slices.EqualFunc(got, want, func(a, b Tuple) bool { return slices.Equal(a, b) }) {
						t.Fatalf("arity %d, %s: Lookup(%v, %v) = %v, model %v", arity, when, positions, vals, got, want)
					}
				}
			}
			if got := r.Lookup(nil, nil); len(got) != len(model.tuples) {
				t.Fatalf("arity %d, %s: Lookup() returns %d tuples of %d", arity, when, len(got), len(model.tuples))
			}
		}

		// The first index is asked for before any tuple arrives, the way a
		// join finds the cache it looks into still empty; check builds the
		// others over the tuples it finds.
		if arity > 0 {
			if got := r.Lookup(positionLists[0], draw(1)); got != nil {
				t.Fatalf("arity %d: Lookup on the empty relation = %v", arity, got)
			}
		}
		buf := make(Tuple, arity)
		for n := 0; n < 2000; n++ {
			tuple := draw(arity)
			want := model.insert(tuple)
			if n%2 == 0 {
				if got := r.Insert(tuple); got != want {
					t.Fatalf("arity %d: Insert(%v) = %v, model %v", arity, tuple, got, want)
				}
				continue
			}
			copy(buf, tuple)
			own, got := r.InsertCopy(buf)
			if got != want || got && !slices.Equal(own, tuple) {
				t.Fatalf("arity %d: InsertCopy(%v) = %v, %v, model %v", arity, tuple, own, got, want)
			}
			for i := range buf {
				buf[i] = 0 // the relation kept a copy, not the buffer
			}
		}
		if arity > 0 && (len(model.tuples) < 500 || len(model.tuples) > 1800) {
			t.Fatalf("arity %d: %d distinct tuples of 2000 inserts: the draw does not mix fresh and duplicate", arity, len(model.tuples))
		}
		check("after the inserts")
		// The indexes built over the full relation keep up with inserts.
		for n := 0; n < 200; n++ {
			tuple := draw(arity)
			if got, want := r.Insert(tuple), model.insert(tuple); got != want {
				t.Fatalf("arity %d: Insert(%v) = %v, model %v", arity, tuple, got, want)
			}
		}
		check("after inserts into the indexed relation")
		// Lookups between every few inserts, each for the key of the tuple
		// just inserted: an index that catches up one tuple short, or files
		// one twice, answers one of them wrong.
		for n := 0; n < 300; n++ {
			tuple := draw(arity)
			if got, want := r.Insert(tuple), model.insert(tuple); got != want {
				t.Fatalf("arity %d: Insert(%v) = %v, model %v", arity, tuple, got, want)
			}
			if n%3 != 0 {
				continue
			}
			for _, positions := range positionLists {
				vals := make([]sym.ID, len(positions))
				for i, p := range positions {
					vals[i] = tuple[p]
				}
				got, want := r.Lookup(positions, vals), model.lookup(positions, vals)
				if !slices.EqualFunc(got, want, func(a, b Tuple) bool { return slices.Equal(a, b) }) {
					t.Fatalf("arity %d, interleaved: Lookup(%v, %v) = %v, model %v", arity, positions, vals, got, want)
				}
			}
		}
		check("after interleaved inserts and lookups")
	}
}

// TestRelationSequentialIDs: the interner hands out consecutive IDs, so
// that is what tuples are made of. With 10⁵ of them membership and lookups
// stay exact. (How evenly they spread is sym.RefTable's to show.)
func TestRelationSequentialIDs(t *testing.T) {
	const n = 100000
	for _, arity := range []int{1, 2, 3} {
		r := NewRelation("r", arity)
		tuple := func(i int) Tuple {
			t := make(Tuple, arity)
			for j := range t {
				t[j] = sym.ID(1 + i + j) // (i), (i, i+1), (i, i+1, i+2)
			}
			return t
		}
		for i := 0; i < n; i++ {
			if !r.Insert(tuple(i)) {
				t.Fatalf("arity %d: tuple %d reported as held", arity, i)
			}
		}
		for i := 0; i < n; i += 97 {
			if !r.Contains(tuple(i)) || r.Contains(tuple(n+i)) {
				t.Fatalf("arity %d: membership of tuple %d or %d is wrong", arity, i, n+i)
			}
			if got := r.Lookup([]int{0}, tuple(i)[:1]); len(got) != 1 || !slices.Equal(got[0], tuple(i)) {
				t.Fatalf("arity %d: Lookup of tuple %d by its first value = %v", arity, i, got)
			}
		}
	}
}

// TestRelationResetKeepsCapacity: a recycled relation that held a thousand
// tuples takes a thousand again, and answers the lookups it answered before,
// without growing its membership table or rebuilding its indexes.
func TestRelationResetKeepsCapacity(t *testing.T) {
	tuples := benchTuples(1000, 10)
	r := NewRelation("r", 3)
	first, last := []int{0}, []int{1, 2}
	fill := func() {
		for _, t := range tuples {
			r.Insert(t)
		}
		for _, t := range tuples {
			if len(r.Lookup(first, t[:1])) != 1 || len(r.Lookup(last, t[1:])) != 1 {
				panic(fmt.Sprintf("lookups of %v miss it", t))
			}
		}
	}
	fill()
	r.Reset()
	if found := r.Lookup(first, tuples[0][:1]); r.Len() != 0 || r.Contains(tuples[0]) || found != nil {
		t.Fatalf("after Reset the relation holds %d tuples, the first among them: %v; a lookup finds %v", r.Len(), r.Contains(tuples[0]), found)
	}
	if allocs := testing.AllocsPerRun(5, func() { r.Reset(); fill() }); allocs != 0 {
		t.Errorf("refilling a reset relation makes %.0f allocations, want none", allocs)
	}
}

// allocated returns the fewest bytes any of three calls of f allocates.
func allocated(f func()) uint64 {
	var least uint64 = math.MaxUint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestUnaskedIndexCostsInsertNothing: an index is filed at lookup, so one a
// join asked for while the relation was empty — conf's index on P in the
// scan, looked up once, before conf holds a tuple — costs the inserts that
// follow nothing.
func TestUnaskedIndexCostsInsertNothing(t *testing.T) {
	tuples := benchTuples(10000, 64)
	fill := func(lookup bool) uint64 {
		return allocated(func() {
			r := NewRelation("r", 3)
			if lookup {
				r.Lookup([]int{1}, tuples[0][1:2])
			}
			for _, t := range tuples {
				r.Insert(t)
			}
		})
	}
	// The index's own header and position list are the slack.
	if indexed, plain := fill(true), fill(false); indexed > plain+256 {
		t.Errorf("10000 inserts allocate %d bytes under an index nobody looked up since, %d under none", indexed, plain)
	}
}

// TestResetReleasesTuples: a reset relation keeps its indexes' capacity but
// none of their entries — no tuple stays reachable through a bucket or the
// slab buckets are carved from, so a pooled cache relation does not hold a
// table version alive after the run that read it.
func TestResetReleasesTuples(t *testing.T) {
	r := NewRelation("r", 4)
	key := []int{0}
	freed := make(chan int, 3)
	// Three tuples under one key: the first two sit in the slab, and the
	// bucket then outgrows its two slots into an array of its own. Four IDs
	// apiece keep each tuple out of the tiny allocator, which batches objects
	// and may never run their finalizers.
	for i := range 3 {
		tuple := Tuple{1, sym.ID(i + 2), 0, 0}
		runtime.SetFinalizer(&tuple[0], func(*sym.ID) { freed <- i })
		r.Insert(tuple)
	}
	if n := len(r.Lookup(key, []sym.ID{1})); n != 3 {
		t.Fatalf("Lookup finds %d tuples, want 3", n)
	}
	r.Reset()
	for range 3 {
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatal("a tuple stays reachable through the reset relation's index")
		}
	}
	if r.Lookup(key, []sym.ID{1}) != nil { // and keeps the relation alive until here
		t.Error("the reset relation still finds a tuple")
	}
}
