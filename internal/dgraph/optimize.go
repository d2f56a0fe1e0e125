package dgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Optimized is the optimized d-graph: the marked d-graph of the maximal
// solution with deleted arcs removed and useless white sources dropped. It
// determines the relevant relations and is the input of plan generation.
type Optimized struct {
	Graph    *Graph
	Solution *Solution

	// Sources are the surviving sources: all black sources, plus the white
	// sources with at least one live incident arc.
	Sources []*Source
	// Arcs are the live (weak or strong) arcs.
	Arcs []*Arc
}

// Optimize computes the maximal solution with GFP and assembles the
// optimized d-graph.
func (g *Graph) Optimize() *Optimized {
	return g.OptimizeWith(g.GFP())
}

// OptimizeWith assembles the optimized d-graph from a given solution; used
// by ablation experiments that want to bypass GFP (e.g. the naive solution
// with every arc weak).
func (g *Graph) OptimizeWith(sol *Solution) *Optimized {
	o := &Optimized{Graph: g, Solution: sol}
	touched := make(map[int]bool) // source IDs with a live incident arc
	for _, a := range g.Arcs {
		if sol.Deleted[a.ID] {
			continue
		}
		o.Arcs = append(o.Arcs, a)
		touched[a.From.Source.ID] = true
		touched[a.To.Source.ID] = true
	}
	for _, s := range g.Sources {
		if s.Black || touched[s.ID] {
			o.Sources = append(o.Sources, s)
		}
	}
	return o
}

// RelevantRelations returns the sorted names of the relations relevant for
// the query: a relation r is relevant iff it is nullary and occurs in the
// query, or it occurs in the optimized d-graph (Section III).
func (o *Optimized) RelevantRelations() []string {
	set := make(map[string]bool)
	for _, s := range o.Sources {
		set[s.Rel.Name] = true
	}
	for _, s := range o.Graph.Sources {
		if s.Black && s.Rel.Arity() == 0 {
			set[s.Rel.Name] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IrrelevantRelations returns the sorted names of queryable relations that
// the optimization excluded from the plan.
func (o *Optimized) IrrelevantRelations() []string {
	relevant := make(map[string]bool)
	for _, n := range o.RelevantRelations() {
		relevant[n] = true
	}
	var out []string
	for _, rel := range o.Graph.Schema.Relations() {
		if !relevant[rel.Name] && o.Graph.Queryable[rel.Name] {
			out = append(out, rel.Name)
		}
	}
	sort.Strings(out)
	return out
}

// StrongInArcs returns the strong arcs entering node n.
func (o *Optimized) StrongInArcs(n *Node) []*Arc {
	var out []*Arc
	for _, a := range o.Graph.InArcs(n) {
		if o.Solution.Mark(a) == Strong {
			out = append(out, a)
		}
	}
	return out
}

// WeakInArcs returns the weak (live, non-strong) arcs entering node n.
func (o *Optimized) WeakInArcs(n *Node) []*Arc {
	var out []*Arc
	for _, a := range o.Graph.InArcs(n) {
		if o.Solution.Mark(a) == Weak {
			out = append(out, a)
		}
	}
	return out
}

// String renders the optimized graph: surviving sources and live arcs with
// their marks.
func (o *Optimized) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimized d-graph for %s\n", o.Graph.Query)
	for _, s := range o.Sources {
		fmt.Fprintf(&b, "  source %s\n", s.Label())
	}
	lines := make([]string, 0, len(o.Arcs))
	for _, a := range o.Arcs {
		lines = append(lines, fmt.Sprintf("  [%s] %s", o.Solution.Mark(a), a))
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}
