package exec

import (
	"context"
	"errors"

	"toorjah/internal/cq"
	"toorjah/internal/datalog"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// Naive runs the algorithm of the paper's Fig. 1 on the original query
// (constants included): starting from the constants in the query, probe
// every relation with every untried combination of known values of the
// right abstract domains, accumulate the extracted tuples in a cache and
// the extracted values in the known-value set, until no new access can be
// made; finally evaluate the query over the cache and hand the answers to
// onAnswers (when non-nil) as one burst, the run's last.
//
// The typing must come from cq.Validate(q, sch). Every access is counted
// once; no binding is ever probed twice: each relation's bindings come from
// the semi-naive enumerator the optimized executor uses, which hands every
// combination over once. Of the options, the cross-query
// Cache, MaxBatch and Limit are meaningful here (the ablation switches
// target the optimized strategies). Each round's untried bindings of a
// relation are probed in batches of at most MaxBatch; a cancelled ctx stops
// the extraction and returns the answers derivable so far as a truncated,
// sound subset.
func Naive(ctx context.Context, sch *schema.Schema, reg *source.Registry, q *cq.CQ, ty *cq.Typing, opts Options, onAnswers func(burst []datalog.Tuple, last bool)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// One hold for the whole run, as for the optimized executor: the query's
	// constants intern under it, unpinned.
	h := sym.Default.HoldFor(ctx)
	defer h.Release()
	k := newSink(q.Name, len(q.Head), opts, onAnswers)
	query, err := datalog.CompileUnder(h, datalog.RuleOf(q), -1)
	if err != nil {
		return nil, err
	}
	names := sch.Names() // the naive algorithm probes every relation
	paths, err := openAccess(reg, names, opts)
	if err != nil {
		return nil, err
	}

	rels := sch.Relations()
	// The scratch holds each relation's enumerator over its input domains and
	// the arena a pass lays its bindings out in — both recycled across runs
	// (and, in a sequential union, across disjuncts).
	sc := getScratch()
	defer sc.release()
	// B, the known values, lives in the enumerators: a value the run learns
	// goes to every input position of its abstract domain, and a pass of a
	// relation's enumerator hands over exactly the combinations no earlier
	// pass did — the untried ones, without a tried-set.
	enums := make([]*enumState, len(rels))
	inputs := make(map[schema.Domain][]*enumPos)
	for ri, rel := range rels {
		enums[ri] = sc.enum(len(rel.InputPositions()))
		for i, d := range rel.InputDomains() {
			inputs[d] = append(inputs[d], &enums[ri].pos[i])
		}
	}
	learn := func(d schema.Domain, v sym.ID) {
		for _, p := range inputs[d] {
			p.add(v)
		}
	}
	// Seeded with the query constants, interned here — the string boundary
	// of the run.
	for c, d := range ty.ConstDomain {
		learn(d, h.Intern(c))
	}

	cache := datalog.DB{}
	for _, rel := range rels {
		cache.Get(rel.Name, rel.Arity())
	}
	truncated, demanded := false, 0
	for changed := true; changed && !truncated; {
		changed = false
		for ri, rel := range rels {
			// Collect the pass's bindings, then probe them in batches of at
			// most MaxBatch: the access set is identical to probing one at a
			// time (what they extract only feeds the next pass).
			var count int
			sc.arena, count = enums[ri].next(sc.arena[:0])
			if count == 0 {
				continue
			}
			changed = true
			crel := cache[rel.Name]
			sent, err := sc.probeArena(ctx, paths[ri].top, len(enums[ri].pos), count, opts.maxBatch(), func(rows []datalog.Tuple) {
				for _, row := range rows {
					if crel.Insert(row) {
						for pos, v := range row {
							learn(rel.Domains[pos], v)
						}
					}
				}
			})
			demanded += sent
			if errors.Is(err, errCancelled) {
				truncated = true
				break
			}
			if err != nil {
				return nil, err
			}
		}
	}

	if err := k.evaluate(query, &sc.join, cache, truncated); err != nil {
		return nil, err
	}
	return k.finish(statsOf(names, paths), demanded, truncated, false), nil
}
