package datalog

import (
	"fmt"
	"slices"

	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// Tuple is one row of a relation, in the engine's stored form: interned
// symbol IDs. It is the stored row type of package storage, so an
// extraction travels from a table through its source into a cache relation
// without a copy or a conversion. Constants intern on entry (query parse,
// rule heads); values materialize back into strings only at the result
// boundary via Strings — for an answer, while its Result is reachable.
type Tuple = storage.IRow

// T builds a tuple from string values, interning and pinning them (see
// package sym) — the boundary constructor used by tests and by callers
// holding boundary data.
func T(vals ...string) Tuple { return sym.InternAll(vals) }

// Relation is a set of equal-length tuples with lazily built hash indexes on
// position subsets. Membership and every index are one sym.RefTable each,
// hashed straight from the IDs and pointing into what the relation stores
// anyway: no key is built, and none is kept beside the tuple it came from. A
// relation holds fewer than 2³¹ tuples. Lookup writes — it files the tuples
// its index has not seen — so a relation is not safe for concurrent use.
type Relation struct {
	Name   string
	Arity  int
	tuples []Tuple
	seen   sym.RefTable // references into tuples
	// indexes holds one hash index per position list a Lookup has asked
	// for, caught up at lookup: inserting touches none of them. A relation
	// carries a handful at most (one per way a rule joins into it), so
	// finding one is a scan comparing position lists.
	indexes []*index
	// chunk is where InsertCopy carves its copies from.
	chunk []sym.ID
}

// index groups a relation's tuples by their values at fixed positions.
type index struct {
	positions []int
	group     sym.RefTable // references into buckets
	buckets   [][]Tuple
	slab      []Tuple // what new buckets are carved from
	filed     int     // the relation's tuples before this one are filed
	asked     bool    // a Lookup asked for the index since the last Reset
}

// find returns the bucket of the tuples holding vals at the index's
// positions, hashed to h, or −1. Every tuple of a bucket carries the
// bucket's key, so the first one stands for it.
func (ix *index) find(vals []sym.ID, h uint32) int32 {
candidates:
	for at, ref := ix.group.First(h); ref >= 0; at, ref = ix.group.Next(at, h) {
		t := ix.buckets[ref][0]
		for i, p := range ix.positions {
			if t[p] != vals[i] {
				continue candidates
			}
		}
		return ref
	}
	return -1
}

// add files a tuple under its values at the index's positions.
func (ix *index) add(t Tuple) {
	var kb [8]sym.ID
	vals := kb[:0]
	for _, p := range ix.positions {
		vals = append(vals, t[p])
	}
	h := sym.HashIDs(vals)
	if b := ix.find(vals, h); b >= 0 {
		ix.buckets[b] = append(ix.buckets[b], t)
		return
	}
	ix.group.Add(h, int32(len(ix.buckets)))
	// A bucket starts with room for a second tuple, carved with many others:
	// a key that joins to one tuple or two never allocates on its own.
	if cap(ix.slab)-len(ix.slab) < 2 {
		ix.slab = make([]Tuple, 0, max(8, min(2*cap(ix.slab), 1024)))
	}
	n := len(ix.slab)
	ix.slab = append(ix.slab, t, nil)
	ix.buckets = append(ix.buckets, ix.slab[n:n+1:n+2])
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity}
}

// MarkIDs marks the IDs of every tuple: a relation registered with
// sym.AddRoot keeps its values while it is reachable.
func (r *Relation) MarkIDs(m *sym.Marks) {
	for _, t := range r.tuples {
		m.Add(t)
	}
}

// Reset empties the relation for reuse (under a new Name and Arity, if the
// caller sets them). The tuple slice, the membership table and the indexes a
// Lookup asked for since the last Reset keep their capacity but none of their
// entries — no tuple stays reachable through the relation; the other indexes
// are discarded, so a recycled relation carries what its last use joined on.
func (r *Relation) Reset() {
	clear(r.tuples)
	r.tuples = r.tuples[:0]
	r.seen.Reset()
	r.indexes = slices.DeleteFunc(r.indexes, func(ix *index) bool { return !ix.asked })
	for _, ix := range r.indexes {
		ix.reset()
	}
	r.chunk = nil // its tuples may live on in whoever was handed them
}

// reset empties the index, keeping its group table, its bucket list and a
// slab with room for as many buckets as it held.
func (ix *index) reset() {
	ix.group.Reset()
	clear(ix.slab)
	ix.slab = slices.Grow(ix.slab[:0], 2*len(ix.buckets))
	clear(ix.buckets)
	ix.buckets = ix.buckets[:0]
	ix.filed, ix.asked = 0, false
}

// holds reports membership of a tuple hashed to h.
func (r *Relation) holds(t Tuple, h uint32) bool {
	for at, ref := r.seen.First(h); ref >= 0; at, ref = r.seen.Next(at, h) {
		if slices.Equal(r.tuples[ref], t) {
			return true
		}
	}
	return false
}

// store appends a tuple, hashed to h, that the relation does not hold.
func (r *Relation) store(t Tuple, h uint32) {
	r.seen.Add(h, int32(len(r.tuples)))
	r.tuples = append(r.tuples, t)
}

func (r *Relation) checkArity(t Tuple) {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("relation %s: inserting arity-%d tuple into arity-%d relation", r.Name, len(t), r.Arity))
	}
}

// Insert adds a tuple — the slice itself, which the caller must not modify
// afterwards — and reports whether it was new.
func (r *Relation) Insert(t Tuple) bool {
	r.checkArity(t)
	h := sym.HashIDs(t)
	if r.holds(t, h) {
		return false
	}
	r.store(t, h)
	return true
}

// InsertCopy is Insert for a tuple the caller will reuse, a join's head
// buffer typically: unless the relation holds t already, it stores a copy
// carved from memory it allocates many tuples at a time, and returns the
// copy.
func (r *Relation) InsertCopy(t Tuple) (Tuple, bool) {
	r.checkArity(t)
	h := sym.HashIDs(t)
	if r.holds(t, h) {
		return nil, false
	}
	if cap(r.chunk)-len(r.chunk) < len(t) {
		r.chunk = make([]sym.ID, 0, max(16*len(t), min(2*cap(r.chunk), 4096)))
	}
	n := len(r.chunk)
	r.chunk = append(r.chunk, t...)
	own := r.chunk[n:len(r.chunk):len(r.chunk)]
	r.store(own, h)
	return own, true
}

// Grow makes room for n more tuples: the next n inserts grow neither the
// tuple slice, the membership table nor the chunk InsertCopy carves from.
func (r *Relation) Grow(n int) {
	if cap(r.tuples)-len(r.tuples) < n {
		// Not slices.Grow: built for the race detector, it allocates twice.
		r.tuples = append(make([]Tuple, 0, len(r.tuples)+n), r.tuples...)
	}
	r.seen.Grow(n)
	if cap(r.chunk)-len(r.chunk) < n*r.Arity {
		r.chunk = make([]sym.ID, 0, n*r.Arity)
	}
}

// Contains reports membership of a tuple.
func (r *Relation) Contains(t Tuple) bool { return r.holds(t, sym.HashIDs(t)) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the underlying tuple slice; callers must not modify it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Lookup returns the tuples whose values at the given positions equal vals.
// With no positions it returns all tuples. The lookup is backed by a hash
// index — built on first use, caught up at every one — and the result is the
// index's own bucket, not a copy: callers must not modify it.
func (r *Relation) Lookup(positions []int, vals []sym.ID) []Tuple {
	if len(positions) == 0 {
		return r.tuples
	}
	ix := r.indexOn(positions)
	if b := ix.find(vals, sym.HashIDs(vals)); b >= 0 {
		return ix.buckets[b]
	}
	return nil
}

// indexOn returns the index on the given positions — created when no Lookup
// has asked for it before — with every tuple of the relation filed.
func (r *Relation) indexOn(positions []int) *index {
	var ix *index
	for _, x := range r.indexes {
		if slices.Equal(x.positions, positions) {
			ix = x
			break
		}
	}
	if ix == nil {
		ix = &index{positions: slices.Clone(positions)}
		r.indexes = append(r.indexes, ix)
	}
	for _, t := range r.tuples[ix.filed:] {
		ix.add(t)
	}
	ix.filed, ix.asked = len(r.tuples), true
	return ix
}

// DB maps predicate names to relations.
type DB map[string]*Relation

// Get returns the relation, creating an empty one of the given arity when
// absent.
func (db DB) Get(name string, arity int) *Relation {
	r, ok := db[name]
	if !ok {
		r = NewRelation(name, arity)
		db[name] = r
	}
	return r
}
