package exec

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"toorjah/internal/obs"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// access is one relation's access path: the one way a probe leaves an
// executor. A probe passes, in order,
//
//	cache → meter → pinned source
//
// the cross-query cache when one is configured (cache.Wrap: an access
// answered before at this epoch is not an access), then the meter, which is
// this type, then the source the registry held when the path was opened —
// pinned to its current data version when it is versioned, so every read
// over the path observes one consistent epoch per relation however far
// concurrent writers advance the tables. The meter is where an access is
// counted, once: it keeps the path's source.Stats (Result.Stats) and, when
// the server hands its metric families down (Options.Metrics), times the
// round trip and feeds them the same numbers at the same moment. What the
// cache absorbs never reaches it, so all of these count what reached a
// source and nothing else; what the plan asked for, hits included, is
// counted where round trips are cut (Result.Demanded).
type access struct {
	top source.Wrapper      // what the executor probes: the cache over the meter, or the meter
	src source.Wrapper      // the pinned source
	m   *obs.RelationProbes // the server's handles for the relation; nil without Options.Metrics

	// The path's accounting: atomic, because the pipelined strategy keeps
	// several round trips per relation in flight. counts packs the round
	// trips (high half) and accesses (low half) not yet moved into batches
	// and accesses, so a round trip that extracted nothing is one atomic
	// step (count).
	counts                    atomic.Uint64
	accesses, batches, tuples atomic.Int64
}

// count records a round trip of n accesses that extracted tuples rows. The
// round trip goes into counts by one compare-and-swap; one that would carry
// out of either half moves the word into batches and accesses instead, so
// no count wraps before an int64 would.
func (a *access) count(n, tuples int) {
	if tuples > 0 {
		a.tuples.Add(int64(tuples))
	}
	for {
		old := a.counts.Load()
		if old>>32 < 1<<32-1 && uint64(n) < 1<<32-old&(1<<32-1) {
			if a.counts.CompareAndSwap(old, old+1<<32+uint64(n)) {
				return
			}
			continue
		}
		if a.counts.CompareAndSwap(old, 0) {
			a.batches.Add(int64(old>>32) + 1)
			a.accesses.Add(int64(old&(1<<32-1)) + int64(n))
			return
		}
	}
}

// stats reads the path's accounting once its round trips have landed.
func (a *access) stats() source.Stats {
	c := a.counts.Load()
	return source.Stats{
		Accesses: int(a.accesses.Load() + int64(c&(1<<32-1))),
		Batches:  int(a.batches.Load() + int64(c>>32)),
		Tuples:   int(a.tuples.Load()),
	}
}

// openAccess builds the access paths of the relations an execution probes —
// those and no others, so a run costs what its plan touches, not what the
// schema holds — in the order of relations. It is the one opener of
// relations and the one place a table is pinned: a path Open opened is taken
// as it is, with no second cache layer and no second meter. A relation
// without a source is an error here, before the first probe: a missing
// binding never costs an access.
func openAccess(reg *source.Registry, relations []string, opts Options) ([]access, error) {
	paths := make([]access, len(relations))
	for i, name := range relations {
		a := &paths[i]
		if a.src = reg.Source(name); a.src == nil {
			return nil, fmt.Errorf("exec: no source bound for relation %s", name)
		}
		if o, ok := a.src.(opened); ok {
			a.top, a.src = o.top, o.src
			continue
		}
		a.top = a
		if opts.Cache != nil {
			// The cache's wrapper first, the source second: a rebind swaps the
			// source before it invalidates the relation, so a wrapper of the new
			// incarnation implies the new source, and one that pinned the old
			// source caches nothing (cache.Wrap).
			a.top = opts.Cache.Wrap(a)
			a.src = reg.Source(name)
		}
		if ts, ok := a.src.(*source.TableSource); ok {
			a.src = ts.Snapshot()
		}
		a.m = opts.Metrics.For(name)
	}
	return paths, nil
}

// Open opens relations once for reads that share them — a union's
// disjuncts, a /probe request — so all of them read one data version and one
// cache incarnation per relation, and the meters count what they all cost.
// Hold (sym.Hold) before Open, as an execution does before openAccess.
func Open(reg *source.Registry, relations []string, opts Options) (Paths, error) {
	return openAccess(reg, relations, opts)
}

// Paths are the relations Open opened, in the order it was given them.
type Paths []access

// Source is the i-th path as a source: a probe enters at its top.
func (p Paths) Source(i int) source.Wrapper { return opened{&p[i]} }

// Registry binds the paths by name; an execution over it takes them as they
// are (openAccess).
func (p Paths) Registry() *source.Registry {
	reg := source.NewRegistry()
	for i := range p {
		reg.Bind(p.Source(i))
	}
	return reg
}

// Stats reads what the reads over the paths cost.
func (p Paths) Stats() map[string]source.Stats { return statsOf(p) }

// opened is an access path as Paths hands it out: a probe enters at the top.
type opened struct{ *access }

func (o opened) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	return o.top.Probe(ctx, ids, out)
}

func (a *access) Relation() *schema.Relation { return a.src.Relation() }

// Epoch is the pinned source's data epoch (0 when unversioned): what the
// cache keys the relation's entries by.
func (a *access) Epoch() uint64 { return source.EpochOf(a.src) }

// Probe is the meter: it forwards the batch to the pinned source and
// records the round trip — under a "probe" span when the context carries a
// trace. The instruments are counts and durations and never need the
// values. A round trip that fails is timed and not counted: no access was
// answered.
func (a *access) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	ctx, sp := obs.StartSpan(ctx, "probe")
	if sp != nil { // boxing an attribute allocates, which an untraced probe must not
		sp.SetAttr("relation", a.src.Relation().Name)
		sp.SetAttr("accesses", len(out))
	}
	var start time.Time
	if a.m != nil {
		start = time.Now()
	}
	err := a.src.Probe(ctx, ids, out)
	tuples := 0
	if err == nil {
		for _, rows := range out {
			tuples += len(rows)
		}
		a.count(len(out), tuples)
	}
	if a.m != nil {
		a.m.Record(len(out), time.Since(start), tuples, err == nil)
	}
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", err.Error())
		} else {
			sp.SetAttr("tuples", tuples)
		}
		sp.End()
	}
	return err
}

// statsOf reads the run's accounting off its access paths; a relation that
// was never probed is absent, and a run that probed none has no map.
func statsOf(paths []access) map[string]source.Stats {
	var out map[string]source.Stats
	for i := range paths {
		if st := paths[i].stats(); st.Accesses > 0 {
			if out == nil {
				out = make(map[string]source.Stats, len(paths))
			}
			out[paths[i].src.Relation().Name] = st
		}
	}
	return out
}
