package dgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Mark is the label of an arc in a marked d-graph.
type Mark byte

const (
	// Weak marks an arc that may provide arbitrary values.
	Weak Mark = iota
	// Strong marks an arc between joined black nodes whose values dominate
	// every other provider of the target node.
	Strong
	// Deleted marks an arc that is never needed to compute all obtainable
	// answers.
	Deleted
)

// String returns "weak", "strong" or "deleted".
func (m Mark) String() string {
	switch m {
	case Strong:
		return "strong"
	case Deleted:
		return "deleted"
	default:
		return "weak"
	}
}

// Solution is a pair (S, D) of strong and deleted arc sets for a d-graph —
// the marked d-graph G^(S,D) of Section III. Solutions produced by GFP are
// the unique maximal solution.
type Solution struct {
	G       *Graph
	Strong  map[int]bool // arc IDs in S
	Deleted map[int]bool // arc IDs in D
	// Rounds is the number of fixpoint iterations GFP performed.
	Rounds int
}

// Mark returns the label of the given arc.
func (sol *Solution) Mark(a *Arc) Mark {
	switch {
	case sol.Strong[a.ID]:
		return Strong
	case sol.Deleted[a.ID]:
		return Deleted
	default:
		return Weak
	}
}

// Counts returns the number of strong and deleted arcs.
func (sol *Solution) Counts() (strong, deleted int) {
	return len(sol.Strong), len(sol.Deleted)
}

// String summarises the solution, listing arcs with their marks.
func (sol *Solution) String() string {
	lines := make([]string, 0, len(sol.G.Arcs))
	for _, a := range sol.G.Arcs {
		lines = append(lines, fmt.Sprintf("  [%s] %s", sol.Mark(a), a))
	}
	sort.Strings(lines)
	return "solution:\n" + strings.Join(lines, "\n")
}

// CandidateStrongArcs returns the arcs whose endpoints are both black and
// whose positions hold the same (joined) variable of the query — the
// paper's cand(G). Only these arcs can ever become strong.
func (g *Graph) CandidateStrongArcs() []*Arc {
	var out []*Arc
	for _, a := range g.Arcs {
		if g.isCandidate(a) {
			out = append(out, a)
		}
	}
	return out
}

func (g *Graph) isCandidate(a *Arc) bool {
	if !a.From.Source.Black || !a.To.Source.Black {
		return false
	}
	u, v := a.From.Var(), a.To.Var()
	return u != "" && u == v
}

// CyclicCandidateArcs returns the candidate strong arcs contained in a
// cyclic d-path all of whose arcs are candidate strong — the paper's
// cycl(G). Such arcs can never become strong (their targets would lose
// free-reachability) nor deleted (they reach black nodes).
//
// Two arcs a, b are d-path-adjacent when a enters the source b leaves; an
// arc is cyclic exactly when it lies on a cycle of this arc-adjacency graph,
// i.e. when its strongly connected component has more than one arc or the
// arc is adjacent to itself.
func (g *Graph) CyclicCandidateArcs() map[int]bool {
	cand := g.CandidateStrongArcs()
	index := make(map[int]int, len(cand)) // arc ID -> position in cand
	for i, a := range cand {
		index[a.ID] = i
	}
	// fromSource[s] = candidate arcs whose tail lies in source s.
	fromSource := make(map[int][]int)
	for i, a := range cand {
		fromSource[a.From.Source.ID] = append(fromSource[a.From.Source.ID], i)
	}
	adj := make([][]int, len(cand))
	for i, a := range cand {
		adj[i] = fromSource[a.To.Source.ID]
	}
	comp, ncomp := SCC(len(cand), adj)
	compSize := make([]int, ncomp)
	for _, c := range comp {
		compSize[c]++
	}
	cyclic := make(map[int]bool)
	for i, a := range cand {
		if compSize[comp[i]] > 1 {
			cyclic[a.ID] = true
			continue
		}
		// Single-arc component: cyclic only if self-adjacent (the arc leaves
		// and re-enters the same source).
		for _, j := range adj[i] {
			if j == i {
				cyclic[a.ID] = true
				break
			}
		}
	}
	return cyclic
}

// GFP computes the unique maximal solution (S, D) for the d-graph, as in the
// paper's Fig. 3: S starts from the non-cyclic candidate strong arcs, D from
// all non-candidate arcs; the two monotone operators unmarkStr and unmarkDel
// then shrink the sets to the greatest fixpoint.
func (g *Graph) GFP() *Solution {
	s := make(map[int]bool)
	d := make(map[int]bool)
	cyclic := g.CyclicCandidateArcs()
	for _, a := range g.Arcs {
		if g.isCandidate(a) {
			if !cyclic[a.ID] {
				s[a.ID] = true
			}
		} else {
			d[a.ID] = true
		}
	}
	sol := &Solution{G: g, Strong: s, Deleted: d}
	for {
		sol.Rounds++
		s2 := g.unmarkStr(s, d)
		d2 := g.unmarkDel(s, d)
		if len(s2) == len(s) && len(d2) == len(d) {
			sol.Strong, sol.Deleted = s2, d2
			return sol
		}
		s, d = s2, d2
	}
}

// unmarkStr removes from S every arc u->v such that v's source has an
// outgoing arc that is neither strong nor deleted: such a source must
// provide arbitrary values downstream, so the join on v cannot restrict the
// tuples extracted from it.
func (g *Graph) unmarkStr(s, d map[int]bool) map[int]bool {
	out := make(map[int]bool, len(s))
	for id := range s {
		out[id] = true
	}
	for id := range s {
		a := g.Arcs[id]
		for _, gamma := range g.OutArcs(a.To) {
			if !s[gamma.ID] && !d[gamma.ID] {
				delete(out, id)
				break
			}
		}
	}
	return out
}

// unmarkDel removes from D every arc u->v that turns out to be needed:
// an arc into a black node stays deleted only while some strong arc into v
// dominates it; an arc into a white node stays deleted only while every
// outgoing arc of v's source is itself deleted (the source serves no one).
func (g *Graph) unmarkDel(s, d map[int]bool) map[int]bool {
	out := make(map[int]bool, len(d))
	for id := range d {
		out[id] = true
	}
	for id := range d {
		a := g.Arcs[id]
		v := a.To
		if v.Source.Black {
			strongExists := false
			for _, in := range g.InArcs(v) {
				if s[in.ID] {
					strongExists = true
					break
				}
			}
			if !strongExists {
				delete(out, id)
			}
			continue
		}
		// v is white.
		for _, gamma := range g.OutArcs(v) {
			if !d[gamma.ID] {
				delete(out, id)
				break
			}
		}
	}
	return out
}

// SCC computes the strongly connected components of a directed graph on
// vertices 0…n-1 given as adjacency lists, with an iterative Tarjan (deep
// graphs need no deep Go stack). It returns each vertex's component number
// and the number of components; components are numbered in reverse
// topological order of the condensation.
func SCC(n int, adj [][]int) (comp []int, ncomp int) {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	comp = make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0
	type frame struct{ v, i int }
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		frames := []frame{{v: start}}
		index[start], low[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(adj[f.v]) {
				w := adj[f.v][f.i]
				f.i++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}
