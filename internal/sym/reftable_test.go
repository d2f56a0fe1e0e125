package sym

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refSet is the smallest owner a RefTable can have: a set of ID tuples, the
// table pointing into the slice that stores them.
type refSet struct {
	tuples [][]ID
	tb     RefTable
}

func (s *refSet) find(t []ID) int32 {
	h := HashIDs(t)
	for at, ref := s.tb.First(h); ref >= 0; at, ref = s.tb.Next(at, h) {
		if slices.Equal(s.tuples[ref], t) {
			return ref
		}
	}
	return -1
}

// remove unfiles t's reference; the tuple stays in the slice, unreferenced.
func (s *refSet) remove(t []ID) bool {
	h := HashIDs(t)
	for at, ref := s.tb.First(h); ref >= 0; at, ref = s.tb.Next(at, h) {
		if slices.Equal(s.tuples[ref], t) {
			s.tb.Delete(at)
			return true
		}
	}
	return false
}

func (s *refSet) insert(t []ID) bool {
	if s.find(t) >= 0 {
		return false
	}
	s.tb.Add(HashIDs(t), int32(len(s.tuples)))
	s.tuples = append(s.tuples, t)
	return true
}

// TestRefTableMatchesMapModel: random tuples of arity 0–4, about half of
// the draws duplicates, a quarter of them deletions, across the table's
// doublings; every reference comes back under its own tuple and under no
// other, and a deleted one under none — its neighbours in the run included.
func TestRefTableMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for arity, span := range []int{0: 1, 1: 1500, 2: 40, 3: 12, 4: 7} {
		var set refSet
		model := map[string]int32{}
		for n := 0; n < 2000; n++ {
			tuple := make([]ID, arity)
			for i := range tuple {
				tuple[i] = ID(1 + rng.Intn(span))
			}
			ref, held := model[fmt.Sprint(tuple)]
			if got := set.find(tuple); held && got != ref || !held && got != -1 {
				t.Fatalf("arity %d: find(%v) = %d, model holds it: %v at %d", arity, tuple, got, held, ref)
			}
			if rng.Intn(4) == 0 {
				if set.remove(tuple) != held {
					t.Fatalf("arity %d: remove(%v) found it: %v, model held it: %v", arity, tuple, !held, held)
				}
				delete(model, fmt.Sprint(tuple))
				continue
			}
			if set.insert(tuple) == held {
				t.Fatalf("arity %d: insert(%v) new = %v, model held it: %v", arity, tuple, !held, held)
			}
			if !held {
				model[fmt.Sprint(tuple)] = int32(len(set.tuples) - 1)
			}
		}
		if set.tb.used != len(model) {
			t.Fatalf("arity %d: the table files %d references, the model %d", arity, set.tb.used, len(model))
		}
		for key, ref := range model {
			if got := set.find(set.tuples[ref]); got != ref {
				t.Fatalf("arity %d: after the script %s is filed at %d, the model holds it at %d", arity, key, got, ref)
			}
		}
	}
}

// TestRefTableSequentialIDs: the interner hands out consecutive IDs, so
// that is what tuples are made of. 10⁵ of them, under several seeds, land
// within a slot of where their hash points on average — the table stays
// O(1) — stay at most half full, and are found again.
func TestRefTableSequentialIDs(t *testing.T) {
	defer func(seed uint64) { hashSeed = seed }(hashSeed)
	const n = 100000
	for _, seed := range []uint64{hashSeed, 0, ^uint64(0), 0x9E3779B97F4A7C15} {
		hashSeed = seed
		for _, arity := range []int{1, 2, 3} {
			tuple := func(i int) []ID {
				t := make([]ID, arity)
				for j := range t {
					t[j] = ID(1 + i + j) // (i), (i, i+1), (i, i+1, i+2)
				}
				return t
			}
			var set refSet
			for i := 0; i < n; i++ {
				if !set.insert(tuple(i)) {
					t.Fatalf("seed %#x, arity %d: tuple %d reported as held", seed, arity, i)
				}
			}
			for i := 0; i < n; i += 97 {
				if set.find(tuple(i)) != int32(i) || set.find(tuple(n+i)) != -1 {
					t.Fatalf("seed %#x, arity %d: tuple %d or %d is filed wrongly", seed, arity, i, n+i)
				}
			}
			tb := &set.tb
			if tb.used != n || 2*tb.used > len(tb.slots) {
				t.Fatalf("seed %#x, arity %d: the table holds %d entries in %d slots", seed, arity, tb.used, len(tb.slots))
			}
			displaced := 0
			for at, s := range tb.slots {
				if s.ref != 0 {
					displaced += (at - int(s.hash>>tb.shift)) & (len(tb.slots) - 1)
				}
			}
			if mean := float64(displaced) / n; mean > 1 {
				t.Errorf("seed %#x, arity %d: an entry sits %.2f slots from home on average, want under 1", seed, arity, mean)
			}
		}
	}
}

// TestRefTableGrowsByStoredHash: growing rehashes from the hashes the slots
// keep, so it needs nothing from the owner — entries filed under hashes no
// tuple produced survive every doubling, each under its own hash, colliding
// hashes side by side.
func TestRefTableGrowsByStoredHash(t *testing.T) {
	var tb RefTable
	const n = 5000
	hashOf := func(ref int32) uint32 { return uint32(ref/2) * 0x9E3779B1 } // two references per hash
	for ref := int32(0); ref < n; ref++ {
		tb.Add(hashOf(ref), ref)
	}
	if tb.used != n {
		t.Fatalf("Len = %d, want %d", tb.used, n)
	}
	for ref := int32(0); ref < n; ref++ {
		h, found := hashOf(ref), 0
		for at, got := tb.First(h); got >= 0; at, got = tb.Next(at, h) {
			if got/2 != ref/2 {
				t.Fatalf("reference %d came back under the hash of %d", got, ref)
			}
			found++
		}
		if found != 2 {
			t.Fatalf("hash of reference %d files %d references, want 2", ref, found)
		}
	}
}

// TestRefTableResetKeepsCapacity: Reset keeps the slots and none of the
// entries, so refilling allocates nothing.
func TestRefTableResetKeepsCapacity(t *testing.T) {
	var tb RefTable
	refill := func() {
		tb.Reset()
		for ref := int32(0); ref < 1000; ref++ {
			tb.Add(uint32(ref)*0x9E3779B1, ref)
		}
	}
	refill()
	slots := len(tb.slots)
	tb.Reset()
	if _, ref := tb.First(0); tb.used != 0 || ref != -1 || len(tb.slots) != slots {
		t.Fatalf("after Reset: %d entries, First(0) = %d, %d slots of %d", tb.used, ref, len(tb.slots), slots)
	}
	if allocs := testing.AllocsPerRun(5, refill); allocs != 0 {
		t.Errorf("refilling a reset table makes %.0f allocations, want none", allocs)
	}
}

// TestHashIDsUnrolledMatchesLoop: the unrolled widths of HashIDs hash
// exactly as the general loop does — a RefTable filed under one and probed
// under the other would lose entries — on random tuples of width 0 to 5,
// under the process's seed and a few fixed ones.
func TestHashIDsUnrolledMatchesLoop(t *testing.T) {
	loop := func(ids []ID) uint32 {
		h := hashSeed
		for _, id := range ids {
			hi, lo := bits.Mul64(h^uint64(id), 0x9E3779B97F4A7C15)
			h = hi ^ lo
		}
		return uint32(h >> 32)
	}
	defer func(seed uint64) { hashSeed = seed }(hashSeed)
	rng := rand.New(rand.NewSource(9))
	for _, seed := range []uint64{hashSeed, 0, ^uint64(0)} {
		hashSeed = seed
		for n := 0; n < 10000; n++ {
			ids := make([]ID, n%6)
			for i := range ids {
				ids[i] = ID(rng.Uint32())
			}
			if got, want := HashIDs(ids), loop(ids); got != want {
				t.Fatalf("seed %#x: HashIDs(%v) = %#x, the loop %#x", seed, ids, got, want)
			}
		}
	}
}

// TestHashPairMatchesHashIDs: HashPair hashes two IDs as HashIDs hashes the
// pair — an index filed under one is probed under the other — on random IDs
// under the process's seed and the two extremes.
func TestHashPairMatchesHashIDs(t *testing.T) {
	defer func(seed uint64) { hashSeed = seed }(hashSeed)
	rng := rand.New(rand.NewSource(11))
	for _, seed := range []uint64{hashSeed, 0, ^uint64(0)} {
		hashSeed = seed
		for range 10000 {
			a, b := ID(rng.Uint32()), ID(rng.Uint32())
			if got, want := HashPair(a, b), HashIDs([]ID{a, b}); got != want {
				t.Fatalf("seed %#x: HashPair(%d, %d) = %#x, HashIDs %#x", seed, a, b, got, want)
			}
		}
	}
}
