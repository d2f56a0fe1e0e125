package dgraph

import (
	"slices"
	"strings"
	"testing"

	"toorjah/internal/cq"
	"toorjah/internal/schema"
)

// build runs the full preprocessing pipeline (validate, eliminate constants,
// build) on textual schema and query.
func build(t *testing.T, schemaText, queryText string) *Graph {
	t.Helper()
	sch := schema.MustParse(schemaText)
	q := cq.MustParse(queryText)
	ty, err := cq.Validate(q, sch)
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	pre, err := cq.EliminateConstants(q, sch, ty)
	if err != nil {
		t.Fatalf("eliminate constants: %v", err)
	}
	g, err := Build(pre.Query, pre.Schema)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

const example3Schema = `
r1^io(A, B)
r2^io(B, C)
r3^io(C, A)
`

// TestPaperExample4 checks the d-graph of paper Example 4 (Fig. 2): the
// query q(C) :- r1(a, B), r2(B, C) over {r1^io(A,B), r2^io(B,C), r3^io(C,A)}
// yields sources ra, r1(1), r2(1) (black) and r3 (white), with the arc chain
// e1: ra.A->r1.A, e2: r1.B->r2.B, e3: r2.C->r3.C, e4: r3.A->r1.A.
func TestPaperExample4(t *testing.T) {
	g := build(t, example3Schema, "q(C) :- r1(a, B), r2(B, C)")
	if !g.Answerable {
		t.Fatal("query must be answerable")
	}
	if len(g.Sources) != 4 {
		t.Fatalf("sources = %d, want 4 (ra, r1, r2, r3)", len(g.Sources))
	}
	if len(g.Arcs) != 4 {
		for _, a := range g.Arcs {
			t.Logf("arc: %s", a)
		}
		t.Fatalf("arcs = %d, want 4 (e1..e4)", len(g.Arcs))
	}
	r3 := g.SourceByLabel("r3")
	if r3 == nil || r3.Black {
		t.Fatal("r3 must be a white source")
	}
	ra := g.SourceByLabel("l_0(1)")
	if ra == nil || !ra.Black || !ra.Free() {
		t.Fatal("artificial source l_0(1) (the constant a) must be black and free")
	}
}

// TestPaperExample5 checks the GFP result of paper Example 5 (Fig. 4): arcs
// e1 (ra.A->r1.A) and e2 (r1.B->r2.B) become strong, e3 and e4 are deleted,
// and the optimized d-graph drops source r3 — r3 is irrelevant.
func TestPaperExample5(t *testing.T) {
	g := build(t, example3Schema, "q(C) :- r1(a, B), r2(B, C)")
	sol := g.GFP()
	if err := sol.Verify(); err != nil {
		t.Fatalf("solution invariants: %v", err)
	}
	nStrong, nDeleted := sol.Counts()
	if nStrong != 2 || nDeleted != 2 {
		t.Fatalf("strong=%d deleted=%d, want 2 and 2\n%s", nStrong, nDeleted, sol)
	}
	for _, a := range g.Arcs {
		mark := sol.Mark(a)
		switch {
		case a.To.Source.Label() == "r1(1)" && a.From.Source.Label() == "l_0(1)":
			if mark != Strong {
				t.Errorf("e1 %s: mark %s, want strong", a, mark)
			}
		case a.To.Source.Label() == "r2(1)":
			if mark != Strong {
				t.Errorf("e2 %s: mark %s, want strong", a, mark)
			}
		case a.To.Source.Label() == "r3" || a.From.Source.Label() == "r3":
			if mark != Deleted {
				t.Errorf("e3/e4 %s: mark %s, want deleted", a, mark)
			}
		}
	}
	o := g.OptimizeWith(sol)
	rel := o.RelevantRelations()
	want := "l_0,r1,r2"
	if got := strings.Join(rel, ","); got != want {
		t.Errorf("relevant = %s, want %s", got, want)
	}
	irr := o.IrrelevantRelations()
	if len(irr) != 1 || irr[0] != "r3" {
		t.Errorf("irrelevant = %v, want [r3]", irr)
	}
	if slices.Contains(o.Sources, g.SourceByLabel("r3")) {
		t.Error("optimized graph must drop r3")
	}
}

// TestPaperExample2Queryability checks queryability for query q2(X) :-
// r3(X, c1) of Example 2: r3 and r2 are queryable, r1 is not (no value of
// domain A is ever obtainable from c1), yet the query is answerable because
// r3 — the only relation occurring in it — is queryable.
func TestPaperExample2Queryability(t *testing.T) {
	g := build(t, `
r1^io(A, C)
r2^io(B, C)
r3^io(C, B)
`, "q(X) :- r3(X, c1)")
	if !g.Queryable["r3"] || !g.Queryable["r2"] {
		t.Errorf("r2, r3 must be queryable: %v", g.Queryable)
	}
	if g.Queryable["r1"] {
		t.Error("r1 must not be queryable")
	}
	if !g.Answerable {
		t.Error("q2 is answerable")
	}
	// Non-queryable relations get no white source.
	if g.SourceByLabel("r1") != nil {
		t.Error("non-queryable r1 must not appear in the d-graph")
	}
	// Graph-level accessibility agrees with queryability for all sources.
	acc := g.AccessibleSources()
	for _, s := range g.Sources {
		if !acc[s.ID] {
			t.Errorf("source %s should be accessible", s.Label())
		}
	}
}

// TestNonAnswerable checks a query mentioning a non-queryable relation.
func TestNonAnswerable(t *testing.T) {
	g := build(t, `
r1^io(A, C)
r2^io(B, C)
r3^io(C, B)
`, "q(C) :- r1(X, C), r3(C2, X2)")
	// Constant-free query: no seeds at all, nothing provides domain A.
	if g.Answerable {
		t.Error("query mentioning non-queryable r1 must not be answerable")
	}
}

// The publication schema of Section V.
const pubSchema = `
pub1^io(Paper, Person)
pub2^oo(Paper, Person)
conf^ooo(Paper, ConfName, Year)
rev^ooi(Person, ConfName, Year)
sub^oi(Paper, Person)
rev_icde^iio(Person, Paper, Eval)
`

// TestFig7Q1 checks the optimized d-graph of query q1 (paper Fig. 7): only
// pub1, conf and rev survive; pub2, sub and rev_icde are pruned.
func TestFig7Q1(t *testing.T) {
	g := build(t, pubSchema, "q1(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)")
	o := g.Optimize()
	if err := o.Solution.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if got := strings.Join(o.RelevantRelations(), ","); got != "conf,pub1,rev" {
		t.Errorf("relevant = %s, want conf,pub1,rev", got)
	}
	if got := strings.Join(o.IrrelevantRelations(), ","); got != "pub2,rev_icde,sub" {
		t.Errorf("irrelevant = %s", got)
	}
	// Both arcs of the optimized graph are strong: conf.Paper -> pub1.Paper
	// and conf.Year -> rev.Year.
	if len(o.Arcs) != 2 {
		t.Fatalf("live arcs = %d, want 2\n%s", len(o.Arcs), o)
	}
	for _, a := range o.Arcs {
		if o.Solution.Mark(a) != Strong {
			t.Errorf("arc %s should be strong", a)
		}
		if a.From.Source.Label() != "conf(1)" {
			t.Errorf("arc %s should originate in conf(1)", a)
		}
	}
}

// TestFig8Q2 checks q2 (paper Fig. 8): the optimized d-graph keeps
// rev_icde(1), conf(1), rev(1) and the constant source for 'rej'; pub1,
// pub2 and sub are pruned.
func TestFig8Q2(t *testing.T) {
	g := build(t, pubSchema, "q2(R) :- rev_icde(R, P, rej), conf(P, C, Y), rev(R, C, Y)")
	o := g.Optimize()
	if err := o.Solution.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if got := strings.Join(o.RelevantRelations(), ","); got != "conf,l_0,rev,rev_icde" {
		t.Errorf("relevant = %s, want conf,l_0,rev,rev_icde", got)
	}
	if got := strings.Join(o.IrrelevantRelations(), ","); got != "pub1,pub2,sub" {
		t.Errorf("irrelevant = %s", got)
	}
	// Three strong arcs: rev.Person->rev_icde.Person, conf.Paper->
	// rev_icde.Paper, conf.Year->rev.Year. The l_0 source (rej) provides a value
	// for an output position, so it has no arcs but stays (it is black).
	if len(o.Arcs) != 3 {
		t.Fatalf("live arcs = %d, want 3\n%s", len(o.Arcs), o)
	}
	for _, a := range o.Arcs {
		if o.Solution.Mark(a) != Strong {
			t.Errorf("arc %s should be strong", a)
		}
	}
	lrej := g.SourceByLabel("l_0(1)")
	if lrej == nil || !slices.Contains(o.Sources, lrej) {
		t.Error("constant source l_0(1) (rej) must survive (black)")
	}
}

// TestFig9Q3 checks q3 (paper Fig. 9): every relation except pub2 stays.
func TestFig9Q3(t *testing.T) {
	g := build(t, pubSchema,
		"q3(R) :- rev_icde(R, S, acc), sub(S, A), pub1(P, R), pub1(P, A), rev(R, icde, y2008), conf(P, icde, Y)")
	o := g.Optimize()
	if err := o.Solution.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	want := "conf,l_0,l_1,l_2,pub1,rev,rev_icde,sub"
	if got := strings.Join(o.RelevantRelations(), ","); got != want {
		t.Errorf("relevant = %s\nwant %s", got, want)
	}
	if got := strings.Join(o.IrrelevantRelations(), ","); got != "pub2" {
		t.Errorf("irrelevant = %s, want pub2", got)
	}
	// pub1 occurs twice: two distinct black sources.
	if g.SourceByLabel("pub1(1)") == nil || g.SourceByLabel("pub1(2)") == nil {
		t.Error("two occurrences of pub1 expected")
	}
}

// TestExample3Relevance is the motivating Example 3: over the cyclic schema
// {r1^io(A,B), r2^io(B,C), r3^io(C,A)}, for q(C) :- r1(a, B), r2(B, C), the
// relation r3 is irrelevant — accessing r3 with values from r2 to re-access
// r1 is pointless because the selection on r1 already fixes its binding.
func TestExample3Relevance(t *testing.T) {
	g := build(t, example3Schema, "q(C) :- r1(a, B), r2(B, C)")
	o := g.Optimize()
	if got := strings.Join(o.IrrelevantRelations(), ","); got != "r3" {
		t.Errorf("irrelevant = %s, want r3", got)
	}
}

// TestCyclicCandidatesStayWeak builds a query whose join structure is a pure
// cycle of candidate strong arcs; none may become strong (their targets
// would lose free-reachability) and none may be deleted.
func TestCyclicCandidatesStayWeak(t *testing.T) {
	// r^io(A, A): values of A feed the input of the same domain. The query
	// joins X through both atoms in a cycle: r(X, Y), r(Y, X).
	g := build(t, "r^io(A, A)\nseed^o(A)", "q(X) :- r(X, Y), r(Y, X), seed(X)")
	sol := g.GFP()
	if err := sol.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Arcs between the two r occurrences on joined vars form a cycle:
	// r(1).out(Y) -> r(2).in(Y)... both directions. They must remain weak.
	cyc := g.CyclicCandidateArcs()
	if len(cyc) == 0 {
		t.Fatal("expected cyclic candidate arcs")
	}
	for id := range cyc {
		a := g.Arcs[id]
		if m := sol.Mark(a); m != Weak {
			t.Errorf("cyclic candidate %s marked %s, want weak", a, m)
		}
	}
	// The seed's arc into r(1)/r(2) inputs: seed.X -> r(1).in is candidate
	// (X joined) and not cyclic, so it may be strong only if it doesn't break
	// anything; regardless, invariants hold (checked by Verify above).
}

// TestSelfJoinSameAtom covers a variable joined twice within one atom.
func TestSelfJoinSameAtom(t *testing.T) {
	g := build(t, "r^io(A, A)\nseed^o(A)", "q(X) :- r(X, X), seed(X)")
	sol := g.GFP()
	if err := sol.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	o := g.OptimizeWith(sol)
	if len(o.RelevantRelations()) == 0 {
		t.Fatal("no relevant relations")
	}
}

// TestFreeQueryDeletesAllArcs: a query over free relations only needs no
// value flow at all; every arc is deleted (the paper excludes this extreme
// case from its experiments for fairness because the naive approach would
// do "a lot of useless work").
func TestFreeQueryDeletesAllArcs(t *testing.T) {
	g := build(t, `
f1^oo(A, B)
f2^oo(B, C)
lim^io(A, B)
`, "q(X) :- f1(X, Y), f2(Y, Z)")
	sol := g.GFP()
	if err := sol.Verify(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	o := g.OptimizeWith(sol)
	if len(o.Arcs) != 0 {
		t.Errorf("live arcs = %d, want 0:\n%s", len(o.Arcs), o)
	}
	if got := strings.Join(o.IrrelevantRelations(), ","); got != "lim" {
		t.Errorf("irrelevant = %s, want lim", got)
	}
}

// TestGFPDisjointSets: S and D disjoint and the fixpoint stable under
// re-application, on a batch of structurally different queries.
func TestGFPDisjointSets(t *testing.T) {
	cases := []struct{ schema, query string }{
		{example3Schema, "q(C) :- r1(a, B), r2(B, C)"},
		{pubSchema, "q1(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)"},
		{pubSchema, "q2(R) :- rev_icde(R, P, rej), conf(P, C, Y), rev(R, C, Y)"},
		{pubSchema, "q(P) :- pub2(P, R)"},
		{pubSchema, "q(P, R) :- pub1(P, R), sub(P, R)"},
	}
	for _, c := range cases {
		g := build(t, c.schema, c.query)
		sol := g.GFP()
		if err := sol.Verify(); err != nil {
			t.Errorf("%s: %v", c.query, err)
		}
		// Re-running the operators on the fixpoint must change nothing.
		s2 := g.unmarkStr(sol.Strong, sol.Deleted)
		d2 := g.unmarkDel(sol.Strong, sol.Deleted)
		if len(s2) != len(sol.Strong) || len(d2) != len(sol.Deleted) {
			t.Errorf("%s: fixpoint not stable (S %d->%d, D %d->%d)",
				c.query, len(sol.Strong), len(s2), len(sol.Deleted), len(d2))
		}
	}
}

// TestMaximalityOnExample5 brute-forces all solutions on the small Example 5
// graph and checks GFP's solution is the unique maximal one.
func TestMaximalityOnExample5(t *testing.T) {
	g := build(t, example3Schema, "q(C) :- r1(a, B), r2(B, C)")
	sol := g.GFP()
	// Enumerate all (S, D) assignments over the 4 arcs and keep those that
	// satisfy the local solution conditions; then check none strictly
	// extends GFP's sets.
	n := len(g.Arcs)
	isCand := make([]bool, n)
	for i, a := range g.Arcs {
		isCand[i] = g.isCandidate(a)
	}
	valid := func(s, d map[int]bool) bool {
		for id := range s {
			if d[id] || !isCand[id] {
				return false
			}
			// strong arc's target source must not need to provide arbitrary
			// values: all outgoing arcs strong or deleted
			for _, gamma := range g.OutArcs(g.Arcs[id].To) {
				if !s[gamma.ID] && !d[gamma.ID] {
					return false
				}
			}
		}
		for id := range d {
			if isCand[id] {
				return false
			}
			a := g.Arcs[id]
			if a.To.Source.Black {
				ok := false
				for _, in := range g.InArcs(a.To) {
					if s[in.ID] {
						ok = true
					}
				}
				if !ok {
					return false
				}
			} else {
				for _, gamma := range g.OutArcs(a.To) {
					if !d[gamma.ID] {
						return false
					}
				}
			}
		}
		// free-reachability of black input nodes
		tmp := &Solution{G: g, Strong: s, Deleted: d}
		fr := tmp.FreeReachable()
		for _, src := range g.Sources {
			if !src.Black {
				continue
			}
			for _, v := range src.InputNodes() {
				if !fr[v.ID] {
					return false
				}
			}
		}
		return true
	}
	for mask := 0; mask < 1<<(2*n); mask++ {
		s := map[int]bool{}
		d := map[int]bool{}
		for i := 0; i < n; i++ {
			switch (mask >> (2 * i)) & 3 {
			case 1:
				s[i] = true
			case 2:
				d[i] = true
			}
		}
		if !valid(s, d) {
			continue
		}
		// No valid solution may strictly extend GFP's.
		if superset(s, sol.Strong) && len(s) > len(sol.Strong) {
			t.Errorf("solution with larger S found: %v ⊋ %v", s, sol.Strong)
		}
		if superset(d, sol.Deleted) && len(d) > len(sol.Deleted) {
			t.Errorf("solution with larger D found: %v ⊋ %v", d, sol.Deleted)
		}
	}
}

func superset(big, small map[int]bool) bool {
	for id := range small {
		if !big[id] {
			return false
		}
	}
	return true
}

func TestDOTOutput(t *testing.T) {
	g := build(t, example3Schema, "q(C) :- r1(a, B), r2(B, C)")
	o := g.Optimize()
	full := DOT(g, o.Solution, nil)
	for _, want := range []string{"digraph", "cluster_s0", "r3", "dashed"} {
		if !strings.Contains(full, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	opt := DOTOptimized(o, nil)
	if strings.Contains(opt, "\"r3\"") {
		t.Error("optimized DOT should not contain pruned source r3")
	}
	if !strings.Contains(opt, "penwidth") {
		t.Error("optimized DOT should render strong arcs")
	}
}

func TestBuildRejectsConstants(t *testing.T) {
	sch := schema.MustParse("r^io(A, B)")
	q := cq.MustParse("q(X) :- r(a, X)")
	if _, err := Build(q, sch); err == nil {
		t.Error("Build must reject queries with constants")
	}
}

func TestNegatedAtomSources(t *testing.T) {
	g := build(t, `
r^oo(A, B)
s^io(B, C)
`, "q(X) :- r(X, Y), s(Y, Z), not s(Y, Z)")
	var neg *Source
	for _, src := range g.Sources {
		if src.Negated {
			neg = src
		}
	}
	if neg == nil {
		t.Fatal("no negated source built")
	}
	if len(g.arcsFromSource[neg.ID]) != 0 {
		t.Error("negated sources must not provide values")
	}
	var hasIn bool
	for _, v := range neg.InputNodes() {
		if len(g.InArcs(v)) > 0 {
			hasIn = true
		}
	}
	if !hasIn {
		t.Error("negated source inputs still need providers")
	}
	sol := g.GFP()
	if err := sol.Verify(); err != nil {
		t.Fatalf("invariants with negation: %v", err)
	}
}
