package dgraph

import (
	"testing"

	"toorjah/internal/cq"
	"toorjah/internal/gen"
)

// TestRandomizedGFPInvariants runs the full marking pipeline on random
// workloads and checks every structural invariant of the maximal solution:
// disjointness, candidate discipline, preserved free-reachability, fixpoint
// stability, and sanity of the optimized graph (every input node of a
// surviving source keeps at least one live provider).
func TestRandomizedGFPInvariants(t *testing.T) {
	cfg := gen.Fig10()
	ran := 0
	for seed := int64(0); seed < 60; seed++ {
		g := gen.New(seed, cfg)
		sch := g.Schema()
		q, ok := g.Query(sch, "q")
		if !ok {
			continue
		}
		ty, err := cq.Validate(q, sch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pre, err := cq.EliminateConstants(q, sch, ty)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dg, err := Build(pre.Query, pre.Schema)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !dg.Answerable {
			t.Errorf("seed %d: generator emitted non-answerable query %s", seed, q)
			continue
		}
		ran++
		sol := dg.GFP()
		if err := sol.Verify(); err != nil {
			t.Errorf("seed %d (%s): %v", seed, q, err)
			continue
		}
		// Fixpoint stability.
		s2 := dg.unmarkStr(sol.Strong, sol.Deleted)
		d2 := dg.unmarkDel(sol.Strong, sol.Deleted)
		if len(s2) != len(sol.Strong) || len(d2) != len(sol.Deleted) {
			t.Errorf("seed %d: GFP result not a fixpoint", seed)
		}
		// Optimized-graph sanity.
		o := dg.OptimizeWith(sol)
		for _, src := range o.Sources {
			for _, v := range src.InputNodes() {
				if len(o.StrongInArcs(v))+len(o.WeakInArcs(v)) == 0 {
					t.Errorf("seed %d: surviving source %s has unprovided input %s",
						seed, src.Label(), v)
				}
			}
		}
		// Strong and weak arcs never enter white nodes as "dominated": a
		// white node's live in-arcs are all weak.
		for _, a := range o.Arcs {
			if !a.To.Source.Black && sol.Mark(a) == Strong {
				t.Errorf("seed %d: strong arc into white source: %s", seed, a)
			}
		}
		// Determinism: rebuilding and re-running GFP yields identical sets.
		dg2, err := Build(pre.Query, pre.Schema)
		if err != nil {
			t.Fatal(err)
		}
		sol2 := dg2.GFP()
		if len(sol2.Strong) != len(sol.Strong) || len(sol2.Deleted) != len(sol.Deleted) {
			t.Errorf("seed %d: GFP not deterministic", seed)
		}
	}
	if ran < 40 {
		t.Errorf("only %d/60 workloads ran", ran)
	}
}

// TestRandomizedQueryabilityAgreement: the graph-level accessibility
// fixpoint agrees with the domain-level queryability fixpoint for every
// white source.
func TestRandomizedQueryabilityAgreement(t *testing.T) {
	cfg := gen.Fig10()
	for seed := int64(100); seed < 140; seed++ {
		g := gen.New(seed, cfg)
		sch := g.Schema()
		q, ok := g.Query(sch, "q")
		if !ok {
			continue
		}
		ty, err := cq.Validate(q, sch)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := cq.EliminateConstants(q, sch, ty)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := Build(pre.Query, pre.Schema)
		if err != nil {
			t.Fatal(err)
		}
		acc := dg.AccessibleSources()
		for _, s := range dg.Sources {
			// Build only creates sources for queryable relations, and the
			// graph-level fixpoint must confirm each one.
			if !acc[s.ID] {
				t.Errorf("seed %d: queryable relation %s not graph-accessible", seed, s.Label())
			}
		}
	}
}
