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
// source. Strong arcs render with double lines (penwidth), deleted arcs are
// dashed grey when includeDeleted is set, weak arcs are plain. Passing a nil
// solution renders every arc as weak (the unmarked d-graph). consts, when
// non-nil, are the values to show on the sources of the query constants, by
// slot (see sourceLabels).
func DOT(g *Graph, sol *Solution, includeDeleted bool, consts []string) string {
	label := sourceLabels(g, consts)
	var b strings.Builder
	b.WriteString("digraph dgraph {\n")
	b.WriteString("  rankdir=LR;\n  compound=true;\n  node [shape=circle, fontsize=10];\n")
	for _, s := range g.Sources {
		fmt.Fprintf(&b, "  subgraph cluster_s%d {\n", s.ID)
		style := "dashed" // white sources
		if s.Black {
			style = "solid"
		}
		fmt.Fprintf(&b, "    label=%q; style=%s;\n", label(s), style)
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
	for _, a := range g.Arcs {
		mark := Weak
		if sol != nil {
			mark = sol.Mark(a)
		}
		switch mark {
		case Deleted:
			if !includeDeleted {
				continue
			}
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

// DOTOptimized renders the optimized d-graph (pruned sources omitted), with
// consts as in DOT.
func DOTOptimized(o *Optimized, consts []string) string {
	label := sourceLabels(o.Graph, consts)
	var b strings.Builder
	b.WriteString("digraph optimized {\n")
	b.WriteString("  rankdir=LR;\n  compound=true;\n  node [shape=circle, fontsize=10];\n")
	for _, s := range o.Sources {
		fmt.Fprintf(&b, "  subgraph cluster_s%d {\n", s.ID)
		fmt.Fprintf(&b, "    label=%q;\n", label(s))
		if len(s.Nodes) == 0 {
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
	for _, a := range o.Arcs {
		if o.Solution.Mark(a) == Strong {
			fmt.Fprintf(&b, "  n%d -> n%d [penwidth=2.5, color=\"black:white:black\"];\n", a.From.ID, a.To.ID)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", a.From.ID, a.To.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
