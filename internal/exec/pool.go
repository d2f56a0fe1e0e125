package exec

import (
	"context"
	"slices"
	"sync"

	"toorjah/internal/datalog"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// scratch is the working memory of one execution — everything an executor
// fills while it runs and nobody needs once it returns. Every executor
// borrows one from scratchPool and releases it on the way out, so a
// prepared query executed again and again stops paying for table growth,
// slice growth and rehashing: the second run finds the access queues and
// their meta-caches, the binding arena, the enumerator pools and the cache
// relations' indexes of the first already as large as the query needs.
// Clearing a table or truncating a slice keeps its capacity, the point.
//
// Nothing reachable from a returned Result may live here. Answers are
// tuples the final (or incremental) join allocates itself; the cache
// relations, whose tuples are the sources' shared immutable rows, let go of
// every row with the run.
type scratch struct {
	// rels and enums are handed out front to back — the first relsOut
	// (enumsOut) are in use by the current run — and recycled whole.
	rels     []*datalog.Relation
	relsOut  int
	enums    []*enumState
	enumsOut int
	// arena holds a naive pass's access bindings laid out flat, width IDs
	// apiece — a round trip carries a slice of it; slots are the extractions
	// one brings back.
	arena []sym.ID
	slots [][]datalog.Tuple
	// fresh is groupState.ingest's result buffer: the tuples of the latest
	// extraction that were new to their cache. fold is where a landed round
	// trip gathers one cache node's extractions into one; it is cleared after
	// each use.
	fresh, fold []datalog.Tuple
	// join is the working memory of every compiled rule the run runs, one at
	// a time.
	join datalog.Machine
	// queues are the optimized executor's per-relation access queues, the
	// first queuesOut of them in use by the current run; flights are its
	// round-trip records, the ones not in flight.
	queues    []relQueue
	queuesOut int
	flights   []*flight
	// st is the optimized executor's group state, over cdb and byNode; k is
	// its answer sink, whose burst buffer is recycled; consts holds the
	// one-value tuples of the query constants' caches.
	st     groupState
	cdb    datalog.DB
	byNode []*enumState
	k      sink
	consts []sym.ID
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns an empty scratch with whatever capacity earlier runs
// left in it.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release empties the scratch — dropping every reference to the run's
// tuples, bindings and plan, keeping the buckets and backing arrays — and
// returns it to the pool. The caller must not touch it, or anything handed
// out by it, afterwards.
func (sc *scratch) release() {
	for _, r := range sc.rels[:sc.relsOut] {
		r.Reset()
	}
	for _, es := range sc.enums[:sc.enumsOut] {
		es.reset()
	}
	for i := range sc.queues[:sc.queuesOut] {
		q := &sc.queues[i]
		q.seen.Reset()
		clear(q.meta)
		*q = relQueue{ids: q.ids[:0], runs: q.runs[:0], seen: q.seen, meta: q.meta[:0]}
	}
	sc.relsOut, sc.enumsOut, sc.queuesOut = 0, 0, 0
	sc.st = groupState{}
	clear(sc.cdb)
	clear(sc.byNode)
	clear(sc.k.burst[:cap(sc.k.burst)])
	sc.k = sink{burst: sc.k.burst[:0]}
	sc.arena, sc.consts = sc.arena[:0], sc.consts[:0]
	clear(sc.slots[:cap(sc.slots)])
	clear(sc.fresh[:cap(sc.fresh)])
	scratchPool.Put(sc)
}

// relation hands out an empty cache relation.
func (sc *scratch) relation(name string, arity int) *datalog.Relation {
	if sc.relsOut == len(sc.rels) {
		sc.rels = append(sc.rels, datalog.NewRelation(name, arity))
	}
	r := sc.rels[sc.relsOut]
	sc.relsOut++
	r.Name, r.Arity = name, arity
	return r
}

// enum hands out an empty enumerator state for a node with n input
// positions.
func (sc *scratch) enum(n int) *enumState {
	if sc.enumsOut == len(sc.enums) {
		sc.enums = append(sc.enums, new(enumState))
	}
	es := sc.enums[sc.enumsOut]
	sc.enumsOut++
	es.resize(n)
	return es
}

// relQueues hands out n empty access queues, one per relation of a plan.
func (sc *scratch) relQueues(n int) []relQueue {
	if n > len(sc.queues) {
		sc.queues = append(sc.queues, make([]relQueue, n-len(sc.queues))...)
	}
	sc.queuesOut = n
	return sc.queues[:n]
}

// flight hands out a round-trip record with n result slots; recycle takes it
// back once its extractions have been folded in, dropping its references to
// them — no row stays reachable from the pool.
func (sc *scratch) flight(n int) *flight {
	var fl *flight
	if k := len(sc.flights); k > 0 {
		fl = sc.flights[k-1]
		sc.flights = sc.flights[:k-1]
	} else {
		fl = new(flight)
	}
	fl.rows = slices.Grow(fl.rows[:0], n)[:n]
	return fl
}

func (sc *scratch) recycle(fl *flight) {
	if !fl.landed {
		clear(fl.rows)
	}
	*fl = flight{rows: fl.rows[:0]}
	sc.flights = append(sc.flights, fl)
}

// probeArena probes the count bindings of the given width that a naive
// pass laid out in the arena, at most maxBatch per round trip and in arena
// order, and hands every extraction to ingest. A pass that collected N
// fresh bindings thus costs ceil(N/maxBatch) round trips and allocates
// nothing per binding: each batch is a slice of the arena and a reused
// slice of result slots. A context found done between
// two round trips ends the pass with errCancelled. Either way it reports how
// many of the bindings it sent on a round trip: the accesses demanded.
func (sc *scratch) probeArena(ctx context.Context, w source.Wrapper, width, count, maxBatch int, ingest func(rows []datalog.Tuple)) (sent int, err error) {
	for done := 0; done < count; {
		if ctxDone(ctx) {
			return done, errCancelled
		}
		n := min(maxBatch, count-done)
		sc.slots = slices.Grow(sc.slots[:0], n)[:n]
		if err := probe(ctx, w, sc.arena[done*width:(done+n)*width], sc.slots); err != nil {
			return done + n, err
		}
		for _, rows := range sc.slots {
			ingest(rows)
		}
		done += n
	}
	return count, nil
}
