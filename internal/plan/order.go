package plan

import (
	"sort"

	"toorjah/internal/dgraph"
)

// Order computes the source ordering of Section IV for an optimized
// d-graph: sources traversed by a cyclic d-path (a strongly connected
// component of the live source graph) share a position group; a weak arc
// u→v forces src(u) ⪯ src(v) and a strong arc forces src(u) ≺ src(v). The
// groups are returned in execution order, linearized with the paper's
// fast-failure heuristic: among groups whose prerequisites are complete,
// free sources go first (one access may already refute the query), then
// those whose sources take part in more query joins (failure is detected
// earlier). The second result reports whether the linearization was forced
// at every step — exactly one ordering possible — which is the paper's
// criterion for the existence of a ∀-minimal plan.
func Order(o *dgraph.Optimized) (groups [][]*dgraph.Source, unique bool) {
	sources := o.Sources
	if len(sources) == 0 {
		return nil, true
	}
	index := make(map[int]int, len(sources)) // source ID -> slice index
	for i, s := range sources {
		index[s.ID] = i
	}
	adj := make([][]int, len(sources))
	for _, a := range o.Arcs {
		u, v := index[a.From.Source.ID], index[a.To.Source.ID]
		if u != v {
			adj[u] = append(adj[u], v)
		}
	}
	comp, ncomp := dgraph.SCC(len(sources), adj)
	members := make([][]*dgraph.Source, ncomp)
	for i, s := range sources {
		members[comp[i]] = append(members[comp[i]], s)
	}
	// Condensation edges and in-degrees.
	cadj := make([]map[int]bool, ncomp)
	indeg := make([]int, ncomp)
	for i := range cadj {
		cadj[i] = make(map[int]bool)
	}
	for _, a := range o.Arcs {
		cu, cv := comp[index[a.From.Source.ID]], comp[index[a.To.Source.ID]]
		if cu != cv && !cadj[cu][cv] {
			cadj[cu][cv] = true
			indeg[cv]++
		}
	}
	// Kahn linearization; tie-break: all-free groups first (a free source
	// costs one access and may already refute the query — the paper's
	// "place small tables first"), then by join involvement (descending,
	// the paper's "sources involved in more joins are more likely to lead
	// to failure"), then by smallest source ID for determinism.
	joinScore := make([]int, ncomp)
	allFree := make([]bool, ncomp)
	for ci, ms := range members {
		allFree[ci] = true
		for _, s := range ms {
			joinScore[ci] += sourceJoins(o, s)
			if !s.Free() {
				allFree[ci] = false
			}
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	}
	unique = true
	var ready []int
	for c := 0; c < ncomp; c++ {
		if indeg[c] == 0 {
			ready = append(ready, c)
		}
	}
	for len(ready) > 0 {
		if len(ready) > 1 {
			unique = false
		}
		best := 0
		for i := 1; i < len(ready); i++ {
			a, b := ready[i], ready[best]
			switch {
			case allFree[a] != allFree[b]:
				if allFree[a] {
					best = i
				}
			case joinScore[a] != joinScore[b]:
				if joinScore[a] > joinScore[b] {
					best = i
				}
			case members[a][0].ID < members[b][0].ID:
				best = i
			}
		}
		c := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		groups = append(groups, members[c])
		for d := range cadj[c] {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	return groups, unique
}

// sourceJoins counts, for a black source, how many of its argument
// variables take part in a join of the query; white sources score zero.
func sourceJoins(o *dgraph.Optimized, s *dgraph.Source) int {
	if !s.Black {
		return 0
	}
	joined := make(map[string]bool)
	for _, v := range o.Graph.Query.JoinVars() {
		joined[v] = true
	}
	n := 0
	for _, t := range s.Atom.Args {
		if t.IsVar && joined[t.Name] {
			n++
		}
	}
	return n
}
