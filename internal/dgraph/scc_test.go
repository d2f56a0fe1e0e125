package dgraph

import (
	"math/rand"
	"testing"
)

// reachable returns, for every vertex u, the set of vertices a path of zero
// or more arcs leads to from u, by a BFS from each vertex.
func reachable(n int, adj [][]int) [][]bool {
	reach := make([][]bool, n)
	for u := range reach {
		reach[u] = make([]bool, n)
		reach[u][u] = true
		queue := []int{u}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if !reach[u][w] {
					reach[u][w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return reach
}

// checkSCC holds SCC's contract on one graph: every vertex has a component
// in [0, ncomp), every number is used, and an arc never leads to a
// higher-numbered component (reverse topological order).
func checkSCC(t *testing.T, n int, adj [][]int, comp []int, ncomp int) {
	t.Helper()
	if len(comp) != n {
		t.Fatalf("%d component numbers for %d vertices", len(comp), n)
	}
	used := make([]bool, ncomp)
	for v, c := range comp {
		if c < 0 || c >= ncomp {
			t.Fatalf("vertex %d: component %d outside [0, %d)", v, c, ncomp)
		}
		used[c] = true
	}
	for c, u := range used {
		if !u {
			t.Fatalf("component %d of %d has no vertex", c, ncomp)
		}
	}
	for u, out := range adj {
		for _, v := range out {
			if comp[u] < comp[v] {
				t.Fatalf("arc %d->%d climbs from component %d to %d", u, v, comp[u], comp[v])
			}
		}
	}
}

// TestSCCMatchesMutualReachability: on random digraphs with self-loops,
// parallel arcs and isolated vertices, two vertices share a component
// exactly when each reaches the other.
func TestSCCMatchesMutualReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		n := rng.Intn(25)
		adj := make([][]int, n)
		if n > 0 {
			arcs := rng.Intn(2*n + 1)
			for i := 0; i < arcs; i++ {
				u := rng.Intn(n)
				adj[u] = append(adj[u], rng.Intn(n))
			}
		}
		comp, ncomp := SCC(n, adj)
		checkSCC(t, n, adj, comp, ncomp)
		reach := reachable(n, adj)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if mutual := reach[u][v] && reach[v][u]; mutual != (comp[u] == comp[v]) {
					t.Fatalf("round %d, %v: vertices %d, %d mutually reachable = %v, components %d, %d",
						round, adj, u, v, mutual, comp[u], comp[v])
				}
			}
		}
	}

	// A 100 000-vertex path runs the DFS 100 000 frames deep: one component
	// per vertex. Closing it into a cycle makes one component.
	const n = 100000
	adj := make([][]int, n)
	for i := 0; i+1 < n; i++ {
		adj[i] = []int{i + 1}
	}
	comp, ncomp := SCC(n, adj)
	checkSCC(t, n, adj, comp, ncomp)
	if ncomp != n {
		t.Fatalf("path: %d components, want %d", ncomp, n)
	}
	adj[n-1] = []int{0}
	if _, ncomp := SCC(n, adj); ncomp != 1 {
		t.Fatalf("cycle: %d components, want 1", ncomp)
	}
}
