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

// access is one relation's access path for one execution: the one way a
// probe leaves an executor. A probe passes, in order,
//
//	cache → meter → pinned source
//
// the cross-query cache when one is configured (cache.Wrap: an access
// answered before at this epoch is not an access), then the meter, which is
// this type, then the source the registry held when the run began — pinned
// to its current data version when it is versioned, so the run observes one
// consistent epoch per relation however far concurrent writers advance the
// tables. The meter is where an access is counted, once: it keeps the run's
// source.Stats (Result.Stats) and, when the server hands its metric families
// down (Options.Metrics), times the round trip and feeds them the same
// numbers at the same moment. What the cache absorbs never reaches it, so
// all of these count what reached a source and nothing else; what the plan
// asked for, hits included, is counted where round trips are cut
// (Result.Demanded).
type access struct {
	top source.Wrapper      // what the executor probes: the cache over the meter, or the meter
	src source.Wrapper      // the pinned source
	m   *obs.RelationProbes // the server's handles for the relation; nil without Options.Metrics

	// The run's accounting: atomic, because the pipelined strategy keeps
	// several round trips per relation in flight.
	accesses, batches, tuples atomic.Int64
}

// openAccess builds the access paths of the relations an execution probes —
// those and no others, so a run costs what its plan touches, not what the
// schema holds — in the order of relations. A relation without a source is
// an error here, before the first probe: a missing binding never costs an
// access.
func openAccess(reg *source.Registry, relations []string, opts Options) ([]access, error) {
	paths := make([]access, len(relations))
	for i, name := range relations {
		a := &paths[i]
		if a.src = reg.Source(name); a.src == nil {
			return nil, fmt.Errorf("exec: no source bound for relation %s", name)
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
		a.accesses.Add(int64(len(out)))
		a.batches.Add(1)
		a.tuples.Add(int64(tuples))
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
// was never probed is absent.
func statsOf(relations []string, paths []access) map[string]source.Stats {
	out := make(map[string]source.Stats, len(paths))
	for i := range paths {
		if n := paths[i].accesses.Load(); n > 0 {
			out[relations[i]] = source.Stats{
				Accesses: int(n),
				Batches:  int(paths[i].batches.Load()),
				Tuples:   int(paths[i].tuples.Load()),
			}
		}
	}
	return out
}
