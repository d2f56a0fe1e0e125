package plan

import (
	"strings"
	"testing"

	"toorjah/internal/cq"
	"toorjah/internal/datalog"
	"toorjah/internal/dgraph"
	"toorjah/internal/schema"
)

// cacheOf returns the plan's cache of the given source, or nil.
func cacheOf(p *Plan, s *dgraph.Source) *Cache {
	for _, c := range p.Caches {
		if c.Source.ID == s.ID {
			return c
		}
	}
	return nil
}

// sourceByLabel returns the source of g with the given Label(), or nil.
func sourceByLabel(g *dgraph.Graph, label string) *dgraph.Source {
	for _, s := range g.Sources {
		if s.Label() == label {
			return s
		}
	}
	return nil
}

// optimize runs the full pipeline up to the optimized d-graph.
func optimize(t *testing.T, schemaText, queryText string) *dgraph.Optimized {
	t.Helper()
	sch := schema.MustParse(schemaText)
	q := cq.MustParse(queryText)
	ty, err := cq.Validate(q, sch)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := cq.EliminateConstants(q, sch, ty)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dgraph.Build(pre.Query, pre.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return g.Optimize()
}

// TestBindSharesAnswerCount: the plans Bind makes of one plan — the queries
// of one shape — share the answer count each execution sizes its answer
// relation from, and a plan generated anew starts its own.
func TestBindSharesAnswerCount(t *testing.T) {
	o := optimize(t, example3Schema, "q(C) :- r1(a, B), r2(B, C)")
	p, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.Bind([]string{"x"}), p.Bind([]string{"y"})
	if p.LastAnswers == nil || a.LastAnswers != p.LastAnswers || b.LastAnswers != p.LastAnswers {
		t.Fatalf("answer counts: plan %p, bound %p and %p; want one, shared", p.LastAnswers, a.LastAnswers, b.LastAnswers)
	}
	a.LastAnswers.Store(7)
	if got := b.LastAnswers.Load(); got != 7 {
		t.Errorf("a count stored through one bound plan reads %d through the other, want 7", got)
	}
	again, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	if again.LastAnswers == p.LastAnswers {
		t.Error("a plan generated anew shares the answer count of the first")
	}
}

const example3Schema = `
r1^io(A, B)
r2^io(B, C)
r3^io(C, A)
`

// TestPaperExample7 checks the generated Datalog program for the running
// example (paper Example 7): caches for ra, r1, r2 with strong-arc domain
// predicates, the ordering ra ≺ r1 ≺ r2, and no trace of the irrelevant r3.
func TestPaperExample7(t *testing.T) {
	o := optimize(t, example3Schema, "q(C) :- r1(a, B), r2(B, C)")
	p, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	// Ordering: three singleton groups, l_0 (the constant a) before r1 before r2.
	if len(p.Groups) != 3 {
		t.Fatalf("groups = %d, want 3\n%s", len(p.Groups), p)
	}
	var labels []string
	for _, g := range p.Groups {
		if len(g) != 1 {
			t.Fatalf("non-singleton group: %v", g)
		}
		labels = append(labels, g[0].Label())
	}
	if got := strings.Join(labels, " "); got != "l_0(1) r1(1) r2(1)" {
		t.Errorf("ordering = %s, want l_0(1) r1(1) r2(1)", got)
	}
	// Paper: "the only possible ordering", hence the plan is ∀-minimal.
	if !p.UniqueOrdering || !p.ForAllMinimal() {
		t.Error("Example 7 has a unique ordering (∀-minimal plan)")
	}
	prog := p.Program.String()
	if strings.Contains(prog, "r3") {
		t.Errorf("irrelevant r3 must not appear in the program:\n%s", prog)
	}
	// Domain predicates: r1's input A fed by ra's cache (strong), r2's
	// input B fed by r1's cache (strong).
	for _, want := range []string{
		"s_hat_r1_1_0(X) :- hat_l_0_1(X)",
		"s_hat_r2_1_0(X) :- hat_r1_1(",
		"hat_l_0_1(a).",
	} {
		if !strings.Contains(prog, want) {
			t.Errorf("program missing %q:\n%s", want, prog)
		}
	}
	// Reference semantics: evaluating the program's least fixpoint over
	// Example 2-style data returns the right answers.
	edb := datalog.DB{}
	edb.Get("r1", 2).Insert(datalog.T("a", "b1"))
	edb.Get("r1", 2).Insert(datalog.T("z", "b9")) // not reachable via l_0
	edb.Get("r2", 2).Insert(datalog.T("b1", "c1"))
	edb.Get("r2", 2).Insert(datalog.T("b9", "c9"))
	idb, err := datalog.Eval(p.Program, edb)
	if err != nil {
		t.Fatal(err)
	}
	ans := idb["q"]
	if ans.Len() != 1 || !ans.Contains(datalog.T("c1")) {
		t.Errorf("answers = %v", ans.Tuples())
	}
	// The cache of r1 must not contain the unreachable tuple.
	if idb["hat_r1_1"].Contains(datalog.T("z", "b9")) {
		t.Error("cache contains tuple unreachable under access limitations")
	}
}

// TestExample6NoForAllMinimal reproduces paper Example 6: for
// q(X) :- r1(X), r2(Y) over two free relations, any plan must pick an
// arbitrary first access, so no ∀-minimal plan exists — the ordering is not
// unique.
func TestExample6NoForAllMinimal(t *testing.T) {
	o := optimize(t, "r1^o(A)\nr2^o(B)", "q(X) :- r1(X), r2(Y)")
	p, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	if p.UniqueOrdering {
		t.Error("Example 6 admits several orderings; no ∀-minimal plan exists")
	}
	if len(p.Groups) != 2 {
		t.Errorf("groups = %d, want 2", len(p.Groups))
	}
}

// TestGenerateRejectsNonAnswerable ensures unanswerable queries are refused.
func TestGenerateRejectsNonAnswerable(t *testing.T) {
	o := optimize(t, `
r1^io(A, C)
r2^io(B, C)
r3^io(C, B)
`, "q(C) :- r1(X, C), r3(C2, X2)")
	if _, err := Generate(o); err == nil {
		t.Error("want error for non-answerable query")
	}
}

const pubSchema = `
pub1^io(Paper, Person)
pub2^oo(Paper, Person)
conf^ooo(Paper, ConfName, Year)
rev^ooi(Person, ConfName, Year)
sub^oi(Paper, Person)
rev_icde^iio(Person, Paper, Eval)
`

// TestQ1PlanShape checks the plan for the paper's q1: conf first (free and
// maximally joined), strong-conjunction domain predicates, irrelevant
// relations absent.
func TestQ1PlanShape(t *testing.T) {
	o := optimize(t, pubSchema, "q1(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)")
	p, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	prog := p.Program.String()
	for _, banned := range []string{"pub2", "sub", "rev_icde"} {
		if strings.Contains(prog, banned) {
			t.Errorf("irrelevant %s appears in program:\n%s", banned, prog)
		}
	}
	// First group must be conf (the only free source).
	if p.Groups[0][0].Rel.Name != "conf" {
		t.Errorf("first group = %s, want conf", p.Groups[0][0].Label())
	}
	// Caches in group order; conf's cache has no domain predicates.
	confCache := cacheOf(p, p.Groups[0][0])
	if confCache == nil || len(confCache.DomainPreds) != 0 {
		t.Errorf("conf cache: %+v", confCache)
	}
	// rev^ooi has one input (Year): exactly one domain predicate.
	rev := sourceByLabel(o.Graph, "rev(1)")
	revCache := cacheOf(p, rev)
	if revCache == nil || len(revCache.DomainPreds) != 1 {
		t.Fatalf("rev cache: %+v", revCache)
	}
}

// TestMixedWeakProvidersDisjunction: a white source feeding a black input
// with no join produces one domain rule per weak provider.
func TestMixedWeakProvidersDisjunction(t *testing.T) {
	// lim's input B can be fed (weakly) by both free relations; there is no
	// join on that variable, so no candidate strong arc exists.
	o := optimize(t, `
f1^oo(A, B)
f2^oo(B, C)
lim^io(B, D)
`, "q(D) :- lim(X, D)")
	p, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	// Count rules defining lim's domain predicate.
	limSrc := sourceByLabel(o.Graph, "lim(1)")
	c := cacheOf(p, limSrc)
	if c == nil || len(c.DomainPreds) != 1 {
		t.Fatalf("lim cache: %+v", c)
	}
	dp := c.DomainPreds[0]
	n := 0
	for _, r := range p.Program.Rules {
		if r.Head.Pred == dp {
			n++
			if len(r.Body) != 1 {
				t.Errorf("weak domain rule must have one provider: %s", r)
			}
		}
	}
	if n != 2 {
		t.Errorf("domain rules for %s = %d, want 2 (disjunction of f1, f2)", dp, n)
	}
}

// TestStrongConjunctionJoins: two black providers joined on the same
// variable feeding one input produce a single two-atom domain rule.
func TestStrongConjunctionJoins(t *testing.T) {
	o := optimize(t, `
a^oo(P, D1)
b^oo(P, D2)
lim^io(P, D3)
`, "q(Z) :- a(X, Y1), b(X, Y2), lim(X, Z)")
	p, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	limSrc := sourceByLabel(o.Graph, "lim(1)")
	c := cacheOf(p, limSrc)
	dp := c.DomainPreds[0]
	var defs []*datalog.Rule
	for _, r := range p.Program.Rules {
		if r.Head.Pred == dp {
			defs = append(defs, r)
		}
	}
	if len(defs) != 1 {
		t.Fatalf("domain rules = %d, want single conjunction rule", len(defs))
	}
	if len(defs[0].Body) != 2 {
		t.Errorf("conjunction rule must join both providers: %s", defs[0])
	}
	// Both atoms share variable X at the provider positions.
	for _, a := range defs[0].Body {
		if a.Args[0] != cq.V("X") {
			t.Errorf("provider atom not joined on X: %s", a)
		}
	}
}

// TestSelfJoinCacheNotRestricted: the cache rule of r(X, X) must use fresh
// distinct variables so the cache can still feed other sources with
// off-diagonal tuples; the diagonal restriction lives in the query rule.
func TestSelfJoinCacheNotRestricted(t *testing.T) {
	o := optimize(t, "r^oo(A, A)\nlim^io(A, B)", "q(X, Z) :- r(X, X), lim(X, Z)")
	p, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.Program.Rules {
		if r.Head.Pred != "hat_r_1" {
			continue
		}
		if r.Head.Args[0] == r.Head.Args[1] {
			t.Errorf("cache rule restricted to the diagonal: %s", r)
		}
	}
	// But the query rule must keep the self-join.
	if p.Query.Body[0].Args[0] != p.Query.Body[0].Args[1] {
		t.Errorf("query rule lost the self-join: %s", p.Query)
	}
}

// TestNegatedAtomInPlan: negated occurrences get caches and appear negated
// in the rewritten query.
func TestNegatedAtomInPlan(t *testing.T) {
	o := optimize(t, `
r^oo(A, B)
s^io(B, C)
`, "q(X) :- r(X, Y), s(Y, Z), not s(Y, Z)")
	p, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Query.Negated) != 1 {
		t.Fatalf("rewritten query: %s", p.Query)
	}
	if !strings.HasPrefix(p.Query.Negated[0].Pred, "hat_s_") {
		t.Errorf("negated atom not over a cache: %s", p.Query)
	}
	// Program must stratify (negation only in the final query rule).
	if _, err := p.Program.Stratify(); err != nil {
		t.Errorf("plan program must stratify: %v", err)
	}
}

// TestCyclicSchemaSingleGroup: mutually recursive sources share a group.
func TestCyclicSchemaSingleGroup(t *testing.T) {
	// Two limited relations feeding each other; a free seed starts the flow.
	// No joins beyond the chain, so arcs between r and s are weak cycles.
	o := optimize(t, `
seed^o(A)
r^io(A, B)
s^io(B, A)
`, "q(Y) :- r(X, Y), s(Y2, X2)")
	p, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	// r and s form one cyclic group.
	found := false
	for _, g := range p.Groups {
		if len(g) == 2 {
			names := []string{g[0].Rel.Name, g[1].Rel.Name}
			if (names[0] == "r" && names[1] == "s") || (names[0] == "s" && names[1] == "r") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("r and s must share a group:\n%s", p)
	}
}

// TestPlanProgramValidates on a batch of pipeline queries.
func TestPlanProgramValidates(t *testing.T) {
	cases := []struct{ schema, query string }{
		{example3Schema, "q(C) :- r1(a, B), r2(B, C)"},
		{pubSchema, "q1(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)"},
		{pubSchema, "q2(R) :- rev_icde(R, P, rej), conf(P, C, Y), rev(R, C, Y)"},
		{pubSchema, "q3(R) :- rev_icde(R, S, acc), sub(S, A), pub1(P, R), pub1(P, A), rev(R, icde, y2008), conf(P, icde, Y)"},
		{pubSchema, "q(P) :- pub2(P, R)"},
	}
	for _, c := range cases {
		o := optimize(t, c.schema, c.query)
		p, err := Generate(o)
		if err != nil {
			t.Errorf("%s: %v", c.query, err)
			continue
		}
		if err := p.Program.Validate(); err != nil {
			t.Errorf("%s: %v", c.query, err)
		}
		if _, err := p.Program.Stratify(); err != nil {
			t.Errorf("%s: %v", c.query, err)
		}
		// Every black source must have a cache.
		for _, s := range o.Graph.BlackSources() {
			if cacheOf(p, s) == nil {
				t.Errorf("%s: black source %s has no cache", c.query, s.Label())
			}
		}
		// Strong arcs must cross strictly ordered groups.
		groupOf := map[int]int{}
		for gi, g := range p.Groups {
			for _, s := range g {
				groupOf[s.ID] = gi
			}
		}
		for _, a := range o.Arcs {
			gu, gv := groupOf[a.From.Source.ID], groupOf[a.To.Source.ID]
			switch o.Solution.Mark(a) {
			case dgraph.Strong:
				if gu >= gv {
					t.Errorf("%s: strong arc %s not strictly ordered", c.query, a)
				}
			case dgraph.Weak:
				if gu > gv {
					t.Errorf("%s: weak arc %s violates ordering", c.query, a)
				}
			}
		}
	}
}
