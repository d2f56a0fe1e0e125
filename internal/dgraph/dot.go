package dgraph

import (
	"fmt"
	"strings"

	"toorjah/internal/cq"
	"toorjah/internal/schema"
)

// sourceLabels returns the cluster label of every source: Label, followed
// for the artificial relation of a query constant by what it holds —
// consts[slot] when consts is given, otherwise the constant as the graph's
// query names it (for the graph of a shape, the slot's placeholder).
func sourceLabels(g *Graph, consts []string) func(*Source) string {
	held := make(map[*schema.Relation]string)
	for k, r := range g.Schema.ConstRelations() {
		held[r] = *r.Const
		if k < len(consts) {
			held[r] = consts[k]
		}
	}
	return func(s *Source) string {
		if c, ok := held[s.Rel]; ok {
			return s.Label() + " = " + cq.C(c).String()
		}
		return s.Label()
	}
}

// DOT renders the full d-graph in Graphviz DOT format, one cluster per
// source (solid when black, dashed when white). Strong arcs render with
// double lines (penwidth), deleted arcs dashed grey, weak arcs plain.
// consts, when non-nil, are the values to show on the sources of the query
// constants, by slot (see sourceLabels).
func DOT(g *Graph, sol *Solution, consts []string) string {
	return render("dgraph", g, g.Sources, g.Arcs, sol, true, consts)
}

// DOTOptimized renders the optimized d-graph (pruned sources and deleted
// arcs omitted), with consts as in DOT.
func DOTOptimized(o *Optimized, consts []string) string {
	return render("optimized", o.Graph, o.Sources, o.Arcs, o.Solution, false, consts)
}

// render writes the named digraph of the given sources and arcs of g, each
// arc drawn by its mark in sol; styled sets each cluster's line style by
// its source's colour.
func render(name string, g *Graph, sources []*Source, arcs []*Arc, sol *Solution, styled bool, consts []string) string {
	label := sourceLabels(g, consts)
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n", name)
	b.WriteString("  rankdir=LR;\n  compound=true;\n  node [shape=circle, fontsize=10];\n")
	for _, s := range sources {
		fmt.Fprintf(&b, "  subgraph cluster_s%d {\n", s.ID)
		fmt.Fprintf(&b, "    label=%q;", label(s))
		if styled {
			style := "dashed" // white sources
			if s.Black {
				style = "solid"
			}
			fmt.Fprintf(&b, " style=%s;", style)
		}
		b.WriteString("\n")
		if len(s.Nodes) == 0 {
			// Nullary source: emit a point so the cluster renders.
			fmt.Fprintf(&b, "    n_s%d [shape=point, label=\"\"];\n", s.ID)
		}
		for _, n := range s.Nodes {
			fill := "white"
			if n.IsInput() {
				fill = "lightgrey"
			}
			fmt.Fprintf(&b, "    n%d [label=\"%s\\n%s\", style=filled, fillcolor=%s];\n",
				n.ID, n.Domain, n.Mode, fill)
		}
		b.WriteString("  }\n")
	}
	for _, a := range arcs {
		switch sol.Mark(a) {
		case Deleted:
			fmt.Fprintf(&b, "  n%d -> n%d [style=dashed, color=grey];\n", a.From.ID, a.To.ID)
		case Strong:
			fmt.Fprintf(&b, "  n%d -> n%d [penwidth=2.5, color=\"black:white:black\"];\n", a.From.ID, a.To.ID)
		default:
			fmt.Fprintf(&b, "  n%d -> n%d;\n", a.From.ID, a.To.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
