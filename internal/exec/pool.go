package exec

import (
	"context"
	"sync"

	"toorjah/internal/datalog"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// scratch is the working memory of one execution — everything an executor
// fills while it runs and nobody needs once it returns. Every executor
// borrows one from scratchPool and releases it on the way out, so a
// prepared query executed again and again stops paying for map growth,
// slice growth and rehashing: the second run finds the meta-cache buckets,
// the binding arena and the enumerator pools of the first already as large
// as the query needs. Clearing a map or truncating a slice keeps its
// capacity in Go, which is the entire point.
//
// Nothing reachable from a returned Result may live here. Answers are
// tuples the final (or incremental) join allocates itself; the cache
// relations, whose tuples are the sources' shared immutable rows, are
// dropped with the run.
type scratch struct {
	// tried: per relation, the bindings the naive executor already probed.
	tried map[string]*sym.BindMap[struct{}]
	// meta: per relation, the extractions the optimized executors share
	// between the relation's occurrences (the meta-cache).
	meta map[string]*sym.BindMap[[]datalog.Tuple]
	// rels and enums are handed out front to back — the first relsOut
	// (enumsOut) are in use by the current run — and recycled whole.
	rels     []*datalog.Relation
	relsOut  int
	enums    []*enumState
	enumsOut int
	// arena holds access bindings laid out flat, width IDs apiece; batch is
	// the slice of binding headers into it that one round trip carries.
	arena []sym.ID
	batch [][]sym.ID
	// fresh is groupState.ingest's result buffer: the tuples of the latest
	// extraction that were new to their cache.
	fresh []datalog.Tuple
	// jobBufs are the pipelined engine's job lists — a FIFO per relation, a
	// batch per worker — handed out and recycled like rels and enums.
	jobBufs    []*jobBuf
	jobBufsOut int
}

// jobBuf is one recycled list of access jobs, with room for the binding
// headers of the round trip a worker makes of it.
type jobBuf struct {
	jobs     []job
	bindings [][]sym.ID
}

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{
			tried: make(map[string]*sym.BindMap[struct{}], 8),
			meta:  make(map[string]*sym.BindMap[[]datalog.Tuple], 8),
		}
	},
}

// getScratch returns an empty scratch with whatever capacity earlier runs
// left in it. Sets of relations of other schemas may be present but empty;
// lookups simply miss them.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release empties the scratch — dropping every reference to the run's
// tuples, bindings and plan, keeping the buckets and backing arrays — and
// returns it to the pool. The caller must not touch it, or anything handed
// out by it, afterwards.
func (sc *scratch) release() {
	for _, s := range sc.tried {
		s.Clear()
	}
	for _, m := range sc.meta {
		m.Clear()
	}
	for _, r := range sc.rels[:sc.relsOut] {
		r.Reset()
	}
	for _, es := range sc.enums[:sc.enumsOut] {
		es.reset()
	}
	for _, b := range sc.jobBufs[:sc.jobBufsOut] {
		clear(b.jobs[:cap(b.jobs)])
		clear(b.bindings[:cap(b.bindings)])
		b.jobs, b.bindings = b.jobs[:0], b.bindings[:0]
	}
	sc.relsOut, sc.enumsOut, sc.jobBufsOut = 0, 0, 0
	sc.arena = sc.arena[:0]
	clear(sc.fresh[:cap(sc.fresh)])
	scratchPool.Put(sc)
}

// bindMapFor returns the relation's map of a per-relation family (tried or
// meta), creating it on first use.
func bindMapFor[V any](family map[string]*sym.BindMap[V], rel string) *sym.BindMap[V] {
	m := family[rel]
	if m == nil {
		m = new(sym.BindMap[V])
		family[rel] = m
	}
	return m
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

// jobBuf hands out an empty job list. Like everything the scratch hands
// out it is for one goroutine's use; the pipelined coordinator takes them
// all before it starts the workers.
func (sc *scratch) jobBuf() *jobBuf {
	if sc.jobBufsOut == len(sc.jobBufs) {
		sc.jobBufs = append(sc.jobBufs, new(jobBuf))
	}
	b := sc.jobBufs[sc.jobBufsOut]
	sc.jobBufsOut++
	return b
}

// keep copies a binding into the arena and returns the copy, which stays
// valid until the scratch is released (growing the arena leaves earlier
// copies in the array they were written to).
func (sc *scratch) keep(binding []sym.ID) []sym.ID {
	from := len(sc.arena)
	sc.arena = append(sc.arena, binding...)
	return sc.arena[from:len(sc.arena):len(sc.arena)]
}

// probeArena probes the count bindings of the given width that a pass laid
// out in the arena, at most maxBatch per round trip and in arena order, and
// hands every extraction to ingest. A pass that collected N fresh bindings
// thus costs ceil(N/maxBatch) round trips and allocates nothing per
// binding: each batch is a reused slice of headers into the arena. A
// context found done between two round trips ends the pass with
// errCancelled.
func (sc *scratch) probeArena(ctx context.Context, w source.Wrapper, width, count, maxBatch int,
	ingest func(binding []sym.ID, rows []datalog.Tuple) error) error {
	for done := 0; done < count; {
		if ctxDone(ctx) {
			return errCancelled
		}
		n := min(maxBatch, count-done)
		sc.batch = sc.batch[:0]
		for i := done; i < done+n; i++ {
			sc.batch = append(sc.batch, sc.arena[i*width:(i+1)*width:(i+1)*width])
		}
		rows, err := probe(ctx, w, sc.batch)
		if err != nil {
			return err
		}
		for i, b := range sc.batch {
			if err := ingest(b, rows[i]); err != nil {
				return err
			}
		}
		done += n
	}
	return nil
}
