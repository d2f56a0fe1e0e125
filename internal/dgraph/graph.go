// Package dgraph implements the dependency graphs (d-graphs) of Calì &
// Martinenghi, "Querying Data under Access Limitations" (ICDE 2008),
// Section III — the paper's primary contribution.
//
// A d-graph for a conjunctive query q over a schema R has one group of
// nodes, called a source, per atom of q (black sources) and one per relation
// of R not mentioned in q (white sources); each node corresponds to one
// argument of the relation and carries its access mode and abstract domain.
// An arc connects an output node u to an input node v whenever they share
// the abstract domain: values extracted from u's relation may be used to
// bind v's argument. Chains of arcs (d-paths) starting from free sources
// describe every way a relation with limitations can ever be accessed.
//
// The package computes the marked d-graph — the unique maximal solution of
// strong and deleted arcs via the GFP fixpoint algorithm of the paper's
// Fig. 3 — and from it the optimized d-graph, which contains exactly the
// relevant relations.
package dgraph

import (
	"fmt"
	"sort"
	"strings"

	"toorjah/internal/cq"
	"toorjah/internal/schema"
)

// Node is one argument position of a source.
type Node struct {
	ID     int
	Source *Source
	Pos    int // zero-based argument position within the relation
	Mode   schema.AccessMode
	Domain schema.Domain
}

// IsInput reports whether the node is an input node.
func (n *Node) IsInput() bool { return n.Mode == schema.Input }

// Var returns the variable occupying this position in the source's atom, or
// "" for white sources.
func (n *Node) Var() string {
	if n.Source.Atom == nil {
		return ""
	}
	t := n.Source.Atom.Args[n.Pos]
	if !t.IsVar {
		return ""
	}
	return t.Name
}

// String renders the node as "source.pos(mode:Domain)".
func (n *Node) String() string {
	return fmt.Sprintf("%s.%d(%s:%s)", n.Source.Label(), n.Pos+1, n.Mode, n.Domain)
}

// Source is a group of nodes: one occurrence of a relation in the query
// (black) or a relation of the schema not mentioned in the query (white).
type Source struct {
	ID      int
	Rel     *schema.Relation
	Occ     int  // 1-based occurrence number for black sources; 0 for white
	Black   bool // true when the source corresponds to a query atom
	Negated bool // true when the atom occurs under "not"
	Atom    *cq.Atom
	Nodes   []*Node
}

// Free reports whether the source has no input nodes.
func (s *Source) Free() bool {
	for _, n := range s.Nodes {
		if n.IsInput() {
			return false
		}
	}
	return true
}

// Label renders the source name in the paper's style: the relation name with
// a parenthesised occurrence number for black sources, e.g. "pub1(2)".
func (s *Source) Label() string {
	if s.Black {
		return fmt.Sprintf("%s(%d)", s.Rel.Name, s.Occ)
	}
	return s.Rel.Name
}

// Arc is a dependency from an output node to an input node of the same
// abstract domain.
type Arc struct {
	ID   int
	From *Node
	To   *Node
}

// String renders the arc as "from -> to".
func (a *Arc) String() string { return fmt.Sprintf("%s -> %s", a.From, a.To) }

// Graph is the d-graph G^R_q of a constant-free conjunctive query q over a
// schema R.
type Graph struct {
	Query  *cq.CQ
	Schema *schema.Schema

	Sources []*Source
	Nodes   []*Node
	Arcs    []*Arc

	// Answerable reports whether every relation occurring in the query is
	// queryable (Section II): when false, the query's answer is empty on
	// every instance and no plan needs to run.
	Answerable bool
	// Queryable is the instance-independent set of queryable relations.
	Queryable map[string]bool

	arcsFromSource map[int][]*Arc // source ID -> arcs leaving any of its nodes
	arcsIntoNode   map[int][]*Arc // node ID -> incoming arcs
}

// Build constructs the d-graph for a constant-free query over a schema. The
// query must already be validated against the schema and preprocessed with
// cq.EliminateConstants (constants in q would violate the constant-free
// precondition). White sources are created only for queryable relations:
// non-queryable relations can never be accessed and are discarded up front,
// as Section II prescribes. A relation the query mentions only under "not"
// gets a white source too: its negated source provides nothing, yet the
// relation provides values to every other like any relation of the schema.
func Build(q *cq.CQ, sch *schema.Schema) (*Graph, error) {
	if !q.IsConstantFree() {
		return nil, fmt.Errorf("dgraph: query %s is not constant-free; run cq.EliminateConstants first", q.Name)
	}
	if _, err := cq.Validate(q, sch); err != nil {
		return nil, fmt.Errorf("dgraph: %w", err)
	}
	g := &Graph{
		Query:          q,
		Schema:         sch,
		arcsFromSource: make(map[int][]*Arc),
		arcsIntoNode:   make(map[int][]*Arc),
	}
	// The preprocessing turned every query constant into a free artificial
	// relation, so queryability needs no seed domains.
	g.Queryable = sch.QueryableRelations(nil)

	occ := make(map[string]int)
	inQuery := make(map[string]bool)
	addSource := func(rel *schema.Relation, atom *cq.Atom, negated bool) *Source {
		s := &Source{ID: len(g.Sources), Rel: rel, Negated: negated}
		if atom != nil {
			occ[rel.Name]++
			s.Occ = occ[rel.Name]
			s.Black = true
			a := atom.Clone()
			s.Atom = &a
			inQuery[rel.Name] = inQuery[rel.Name] || !negated
		}
		for pos := 0; pos < rel.Arity(); pos++ {
			n := &Node{
				ID:     len(g.Nodes),
				Source: s,
				Pos:    pos,
				Mode:   rel.Pattern[pos],
				Domain: rel.Domains[pos],
			}
			s.Nodes = append(s.Nodes, n)
			g.Nodes = append(g.Nodes, n)
		}
		g.Sources = append(g.Sources, s)
		return s
	}

	g.Answerable = true
	for i := range q.Body {
		rel := sch.Relation(q.Body[i].Pred)
		addSource(rel, &q.Body[i], false)
		if !g.Queryable[rel.Name] {
			g.Answerable = false
		}
	}
	for i := range q.Negated {
		rel := sch.Relation(q.Negated[i].Pred)
		addSource(rel, &q.Negated[i], true)
		if !g.Queryable[rel.Name] {
			g.Answerable = false
		}
	}
	for _, rel := range sch.Relations() {
		if inQuery[rel.Name] || !g.Queryable[rel.Name] {
			continue
		}
		addSource(rel, nil, false)
	}

	// Arcs: output node -> input node of the same abstract domain. Negated
	// sources never provide values, so no arcs leave them.
	for _, u := range g.Nodes {
		if u.IsInput() || u.Source.Negated {
			continue
		}
		for _, v := range g.Nodes {
			if !v.IsInput() || v.Domain != u.Domain {
				continue
			}
			a := &Arc{ID: len(g.Arcs), From: u, To: v}
			g.Arcs = append(g.Arcs, a)
			g.arcsFromSource[u.Source.ID] = append(g.arcsFromSource[u.Source.ID], a)
			g.arcsIntoNode[v.ID] = append(g.arcsIntoNode[v.ID], a)
		}
	}
	return g, nil
}

// OutArcs returns the arcs leaving any node of the given node's source — the
// paper's outArcs(u, G).
func (g *Graph) OutArcs(n *Node) []*Arc { return g.arcsFromSource[n.Source.ID] }

// InArcs returns the arcs entering the given node.
func (g *Graph) InArcs(n *Node) []*Arc { return g.arcsIntoNode[n.ID] }

// BlackSources returns the sources corresponding to query atoms, in body
// order (positive atoms first, then negated ones).
func (g *Graph) BlackSources() []*Source {
	var out []*Source
	for _, s := range g.Sources {
		if s.Black {
			out = append(out, s)
		}
	}
	return out
}

// String renders a summary of the graph: sources and arcs.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "d-graph for %s\n", g.Query)
	for _, s := range g.Sources {
		color := "white"
		if s.Black {
			color = "black"
		}
		if s.Negated {
			color = "black,negated"
		}
		fmt.Fprintf(&b, "  source %s [%s] %s\n", s.Label(), color, s.Rel)
	}
	arcs := make([]string, 0, len(g.Arcs))
	for _, a := range g.Arcs {
		arcs = append(arcs, "  arc "+a.String())
	}
	sort.Strings(arcs)
	b.WriteString(strings.Join(arcs, "\n"))
	return b.String()
}
