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
// once; no binding is ever probed twice. Of the options, the cross-query
// Cache, MaxBatch and Limit are meaningful here (the ablation switches
// target the optimized strategies). Each round's untried bindings of a
// relation are probed in batches of at most MaxBatch; a cancelled ctx stops
// the extraction and returns the answers derivable so far as a truncated,
// sound subset.
func Naive(ctx context.Context, sch *schema.Schema, reg *source.Registry, q *cq.CQ, ty *cq.Typing, opts Options, onAnswers func(burst []datalog.Tuple, last bool)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k := newSink(q.Name, len(q.Head), opts, onAnswers)
	query, err := datalog.Compile(datalog.RuleOf(q), -1)
	if err != nil {
		return nil, err
	}
	names := sch.Names() // the naive algorithm probes every relation
	paths, err := openAccess(reg, names, opts)
	if err != nil {
		return nil, err
	}

	// B: known values per abstract domain, seeded with the query constants
	// (interned here — the string boundary of the run).
	known := make(map[schema.Domain]map[sym.ID]bool)
	addValue := func(d schema.Domain, v sym.ID) bool {
		m, ok := known[d]
		if !ok {
			m = make(map[sym.ID]bool)
			known[d] = m
		}
		if m[v] {
			return false
		}
		m[v] = true
		return true
	}
	for c, d := range ty.ConstDomain {
		addValue(d, sym.Intern(c))
	}

	cache := datalog.DB{}
	for _, rel := range sch.Relations() {
		cache.Get(rel.Name, rel.Arity())
	}
	// The scratch holds the per-relation sets of already-probed input
	// bindings, keyed on packed symbol IDs, and the arena each pass lays its
	// bindings out in — both recycled across runs (and, in a sequential
	// union, across disjuncts).
	sc := getScratch()
	defer sc.release()

	truncated, demanded := false, 0
	for changed := true; changed && !truncated; {
		changed = false
		for ri, rel := range sch.Relations() {
			w := paths[ri].top
			relTried := bindMapFor(sc.tried, rel.Name)
			crel := cache[rel.Name]
			inputs := rel.InputPositions()
			domains := rel.InputDomains()
			// Enumerate every combination of known values for the input
			// domains; free relations have the single empty combination.
			pools := make([][]sym.ID, len(inputs))
			empty := false
			for i, d := range domains {
				for v := range known[d] {
					pools[i] = append(pools[i], v)
				}
				if len(pools[i]) == 0 {
					empty = true
					break
				}
			}
			if empty {
				continue
			}
			// Collect the untried bindings of this pass in enumeration
			// order, then probe them in batches of at most MaxBatch: the
			// access set is identical to probing one at a time (pools are
			// fixed for the pass; new values only feed the next round).
			sc.arena = sc.arena[:0]
			toProbe := 0
			binding := make([]sym.ID, len(inputs))
			var walk func(i int)
			walk = func(i int) {
				if i == len(inputs) {
					if _, dup := relTried.Get(binding); dup {
						return
					}
					relTried.Put(binding, struct{}{})
					changed = true
					sc.arena = append(sc.arena, binding...)
					toProbe++
					return
				}
				for _, v := range pools[i] {
					binding[i] = v
					walk(i + 1)
				}
			}
			walk(0)
			sent, err := sc.probeArena(ctx, w, len(inputs), toProbe, opts.maxBatch(), func(rows []datalog.Tuple) {
				for _, row := range rows {
					if crel.Insert(row) {
						for pos, v := range row {
							addValue(rel.Domains[pos], v)
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
