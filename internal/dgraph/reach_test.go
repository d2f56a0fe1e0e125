package dgraph

import "fmt"

// The tests read the declarations of this file as oracles: queryability
// and free-reachability recomputed from the graph, against which GFP's
// solution and the optimized d-graph are checked.

// AccessibleSources computes the graph-level counterpart of queryability: a
// source is accessible when every one of its input nodes is reachable by a
// d-path originating from sources having only output nodes. Negated sources
// never provide values (they have no outgoing arcs) but can themselves be
// accessible. The result maps source ID to accessibility.
func (g *Graph) AccessibleSources() map[int]bool {
	acc := make(map[int]bool, len(g.Sources))
	for changed := true; changed; {
		changed = false
		for _, s := range g.Sources {
			if acc[s.ID] {
				continue
			}
			ok := true
			for _, v := range s.InputNodes() {
				reachable := false
				for _, a := range g.InArcs(v) {
					if acc[a.From.Source.ID] {
						reachable = true
						break
					}
				}
				if !reachable {
					ok = false
					break
				}
			}
			if ok {
				acc[s.ID] = true
				changed = true
			}
		}
	}
	return acc
}

// FreeReachable computes, for a marked d-graph, the set of free-reachable
// input nodes of Section III: an input node v is free-reachable when either
// (i) some weak arc u->v exists with every input node of u's source
// free-reachable, or (ii) v has at least one incoming strong arc and every
// incoming strong arc u->v has every input node of u's source
// free-reachable. The result maps node ID to reachability (only input nodes
// appear).
func (sol *Solution) FreeReachable() map[int]bool {
	g := sol.G
	fr := make(map[int]bool)
	srcOK := func(s *Source) bool {
		for _, in := range s.InputNodes() {
			if !fr[in.ID] {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, v := range g.Nodes {
			if !v.IsInput() || fr[v.ID] {
				continue
			}
			var strongIn []*Arc
			reachable := false
			for _, a := range g.InArcs(v) {
				switch sol.Mark(a) {
				case Weak:
					if srcOK(a.From.Source) {
						reachable = true
					}
				case Strong:
					strongIn = append(strongIn, a)
				}
			}
			if !reachable && len(strongIn) > 0 {
				reachable = true
				for _, a := range strongIn {
					if !srcOK(a.From.Source) {
						reachable = false
						break
					}
				}
			}
			if reachable {
				fr[v.ID] = true
				changed = true
			}
		}
	}
	return fr
}

// Verify checks the structural invariants of a solution computed by GFP:
// S and D are disjoint, every strong arc is a candidate strong arc, no
// candidate strong arc is deleted, and — when the query is answerable —
// every input node of a black source is free-reachable (the query keeps its
// queryability). It returns the first violated invariant.
func (sol *Solution) Verify() error {
	g := sol.G
	for id := range sol.Strong {
		if sol.Deleted[id] {
			return fmt.Errorf("arc %s both strong and deleted", g.Arcs[id])
		}
		if !g.isCandidate(g.Arcs[id]) {
			return fmt.Errorf("non-candidate arc %s marked strong", g.Arcs[id])
		}
	}
	for id := range sol.Deleted {
		if g.isCandidate(g.Arcs[id]) {
			return fmt.Errorf("candidate strong arc %s marked deleted", g.Arcs[id])
		}
	}
	if !g.Answerable {
		return nil
	}
	fr := sol.FreeReachable()
	for _, s := range g.Sources {
		if !s.Black {
			continue
		}
		for _, v := range s.InputNodes() {
			if !fr[v.ID] {
				return fmt.Errorf("black input node %s lost free-reachability", v)
			}
		}
	}
	return nil
}

// InputNodes returns the source's input nodes in position order.
func (s *Source) InputNodes() []*Node {
	var out []*Node
	for _, n := range s.Nodes {
		if n.IsInput() {
			out = append(out, n)
		}
	}
	return out
}

// SourceByLabel returns the source with the given Label(), or nil.
func (g *Graph) SourceByLabel(label string) *Source {
	for _, s := range g.Sources {
		if s.Label() == label {
			return s
		}
	}
	return nil
}
