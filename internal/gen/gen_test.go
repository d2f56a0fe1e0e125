package gen

import (
	"testing"

	"toorjah/internal/cq"
	"toorjah/internal/schema"
)

func TestSchemaShape(t *testing.T) {
	cfg := Paper()
	for seed := int64(0); seed < 20; seed++ {
		g := New(seed, cfg)
		sch := g.Schema()
		if n := sch.Len(); n < cfg.MinRelations || n > cfg.MaxRelations {
			t.Errorf("seed %d: %d relations", seed, n)
		}
		for _, rel := range sch.Relations() {
			if a := rel.Arity(); a < cfg.MinArity || a > cfg.MaxArity {
				t.Errorf("seed %d: relation %s arity %d", seed, rel.Name, a)
			}
		}
		// Relation r1 is always free (the guaranteed seed).
		if !sch.Relation("r1").Free() {
			t.Errorf("seed %d: r1 not free", seed)
		}
	}
}

func TestSchemaDeterministic(t *testing.T) {
	a := New(42, Paper()).Schema()
	b := New(42, Paper()).Schema()
	if a.String() != b.String() {
		t.Error("same seed, different schemas")
	}
	c := New(43, Paper()).Schema()
	if a.String() == c.String() {
		t.Error("different seeds produced identical schemas (suspicious)")
	}
}

func TestQueryFairnessFilters(t *testing.T) {
	cfg := Scaled()
	queries := 0
	for seed := int64(0); seed < 30; seed++ {
		g := New(seed, cfg)
		sch := g.Schema()
		q, ok := g.Query(sch, "q")
		if !ok {
			continue
		}
		queries++
		if n := len(q.Body); n < cfg.MinAtoms || n > cfg.MaxAtoms {
			t.Errorf("seed %d: %d atoms", seed, n)
		}
		if !q.HasJoin() {
			t.Errorf("seed %d: query without join: %s", seed, q)
		}
		ty, err := cq.Validate(q, sch)
		if err != nil {
			t.Errorf("seed %d: invalid query %s: %v", seed, q, err)
			continue
		}
		// Answerability (the filter's promise).
		queryable := sch.QueryableRelations(ty.SeedDomains())
		for _, a := range q.Body {
			if !queryable[a.Pred] {
				t.Errorf("seed %d: non-answerable query emitted: %s", seed, q)
			}
		}
		// Not all-free.
		allFree := true
		for _, a := range q.Body {
			if !sch.Relation(a.Pred).Free() {
				allFree = false
			}
		}
		if allFree {
			t.Errorf("seed %d: all-free query emitted: %s", seed, q)
		}
	}
	if queries < 20 {
		t.Errorf("only %d/30 seeds produced a query; generator too restrictive", queries)
	}
}

func TestInstanceRespectsSchema(t *testing.T) {
	g := New(7, Scaled())
	sch := g.Schema()
	db := g.Instance(sch)
	for _, rel := range sch.Relations() {
		tab := db.Table(rel.Name)
		if tab == nil {
			t.Fatalf("no table for %s", rel.Name)
		}
		if tab.Snapshot().Len() == 0 {
			t.Errorf("empty table %s", rel.Name)
		}
		if tab.Arity != rel.Arity() {
			t.Errorf("table %s arity %d, want %d", rel.Name, tab.Arity, rel.Arity())
		}
	}
}

func TestQueryConstantsOccurInInstancePools(t *testing.T) {
	// Constants generated for queries use the same pools as instances, so a
	// constant is at least plausible in the data.
	cfg := Scaled()
	cfg.ConstProb = 0.9
	g := New(3, cfg)
	sch := g.Schema()
	q, ok := g.Query(sch, "q")
	if !ok {
		t.Skip("no query for this seed")
	}
	for _, a := range q.Body {
		for _, c := range a.Args {
			if !c.IsVar && len(c.Name) == 0 {
				t.Errorf("empty constant in %s", q)
			}
		}
	}
}

func TestPublicationWorkload(t *testing.T) {
	sch, db := Publication(1, SmallPublication())
	if sch.Len() != 6 {
		t.Fatalf("schema: %d relations", sch.Len())
	}
	for _, rel := range sch.Relations() {
		if db.Table(rel.Name).Snapshot().Len() == 0 {
			t.Errorf("empty table %s", rel.Name)
		}
	}
	// The query constants occur in the data.
	found := map[string]bool{}
	for _, r := range db.Table("conf").Snapshot().Rows() {
		found[r[1]] = true
		found[r[2]] = true
	}
	if !found["icde"] || !found["y2008"] {
		t.Error("conf must mention icde and y2008")
	}
	evals := map[string]bool{}
	for _, r := range db.Table("rev_icde").Snapshot().Rows() {
		evals[r[2]] = true
	}
	if !evals["acc"] || !evals["rej"] {
		t.Error("rev_icde must mention acc and rej")
	}
	// All three paper queries validate.
	for _, src := range PublicationQueries {
		q := cq.MustParse(src)
		if _, err := cq.Validate(q, sch); err != nil {
			t.Errorf("query %s invalid: %v", src, err)
		}
	}
}

func TestPublicationDeterministic(t *testing.T) {
	sch, a := Publication(5, SmallPublication())
	_, b := Publication(5, SmallPublication())
	for _, rel := range sch.Relations() {
		if a.Table(rel.Name).Snapshot().Len() != b.Table(rel.Name).Snapshot().Len() {
			t.Errorf("table %s differs across runs with the same seed", rel.Name)
		}
	}
}

func TestDomainSizeStable(t *testing.T) {
	g1 := New(1, Paper())
	g2 := New(99, Paper())
	d := schema.Domain("D3")
	if g1.domainSize(d) != g2.domainSize(d) {
		t.Error("domainSize must not depend on the generator seed")
	}
	cfg := Paper()
	if s := g1.domainSize(d); s < cfg.MinDomainValues || s > cfg.MaxDomainValues {
		t.Errorf("domainSize out of range: %d", s)
	}
}
