package core

import (
	"strings"
	"testing"

	"toorjah/internal/cq"
	"toorjah/internal/schema"
)

func TestPrepareFullPipeline(t *testing.T) {
	sch := schema.MustParse(`
r1^io(A, B)
r2^io(B, C)
r3^io(C, A)
`)
	q := cq.MustParse("q(C) :- r1(a, B), r2(B, C)")
	p, err := Prepare(sch, q)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Answerable() || p.Plan == nil {
		t.Fatal("query should be answerable with a plan")
	}
	if got := strings.Join(p.Opt.IrrelevantRelations(), ","); got != "r3" {
		t.Errorf("irrelevant = %s", got)
	}
}

func TestPrepareMinimizesRedundantQuery(t *testing.T) {
	sch := schema.MustParse("r^oo(A, B)")
	q := cq.MustParse("q(X) :- r(X, Y), r(X, Z)")
	p, err := Prepare(sch, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Query.Body) != 1 {
		t.Errorf("query not minimized: %s", p.Query)
	}
	// Opting out keeps the redundancy.
	p2, err := PrepareOpts(sch, q, Options{SkipMinimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Query.Body) != 2 {
		t.Errorf("SkipMinimize ignored: %s", p2.Query)
	}
}

func TestPrepareNonAnswerable(t *testing.T) {
	sch := schema.MustParse(`
r1^io(A, C)
r2^oo(B, C)
`)
	q := cq.MustParse("q(C) :- r1(X, C), r2(B, C2)")
	p, err := Prepare(sch, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Answerable() || p.Plan != nil {
		t.Error("query mentioning non-queryable r1 must have no plan")
	}
}

func TestPrepareSkipPruningKeepsAllSources(t *testing.T) {
	sch := schema.MustParse(`
r1^io(A, B)
r2^io(B, C)
r3^io(C, A)
`)
	q := cq.MustParse("q(C) :- r1(a, B), r2(B, C)")
	p, err := PrepareOpts(sch, q, Options{SkipPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	rel := p.Opt.RelevantRelations()
	if got := strings.Join(rel, ","); !strings.Contains(got, "r3") {
		t.Errorf("unpruned pipeline should keep r3: %s", got)
	}
}
