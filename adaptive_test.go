package toorjah

import (
	"context"
	"fmt"
	"testing"
)

// skewedSystem builds the adaptive-ordering demo instance: seed feeds a
// key into two order-equivalent joined relations, big (many rows) and
// small (empty), so the only thing ordering can change is how early the
// fast-failing executor notices the join is empty. The query lists big
// before small, so the static tie-break (equal join scores, source-ID
// order) probes big first; live sizes reverse that.
func skewedSystem(t testing.TB, opts ...SystemOption) *System {
	t.Helper()
	sch, err := ParseSchema(`
		seed^o(A)
		big^io(A, B)
		small^io(A, C)`)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch, opts...)
	var seeds, bigs []Row
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		seeds = append(seeds, Row{k})
		for j := 0; j < 10; j++ {
			bigs = append(bigs, Row{k, fmt.Sprintf("v%d_%d", i, j)})
		}
	}
	if err := sys.BindRows("seed", seeds...); err != nil {
		t.Fatal(err)
	}
	if err := sys.BindRows("big", bigs...); err != nil {
		t.Fatal(err)
	}
	if err := sys.BindRows("small"); err != nil {
		t.Fatal(err)
	}
	return sys
}

const skewedQuery = "q(B, C) :- big(X, B), small(X, C), seed(X)"

// TestAdaptiveOrderingSavesAccesses is the acceptance property of
// WithAdaptiveOrdering: on the skewed instance the adaptive system probes
// the empty small relation before the fat big one, fails the join early,
// and performs strictly fewer accesses than the static system — with
// identical (empty) answers.
func TestAdaptiveOrderingSavesAccesses(t *testing.T) {
	ctx := context.Background()

	static := skewedSystem(t)
	sq, err := static.Prepare(skewedQuery)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := sq.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}

	adaptive := skewedSystem(t, WithAdaptiveOrdering())
	if !adaptive.AdaptiveOrdering() {
		t.Fatal("AdaptiveOrdering() = false after WithAdaptiveOrdering")
	}
	aq, err := adaptive.Prepare(skewedQuery)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := aq.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if sres.Answers.Len() != ares.Answers.Len() {
		t.Fatalf("answers differ: static %d, adaptive %d", sres.Answers.Len(), ares.Answers.Len())
	}
	if ares.TotalAccesses() >= sres.TotalAccesses() {
		t.Errorf("adaptive accesses = %d, want < static %d",
			ares.TotalAccesses(), sres.TotalAccesses())
	}
}

// TestAdaptiveOrderingReplansOnEpochAdvance mutates the data under a
// prepared query and checks the next execution re-linearizes: once small
// outgrows big, the adaptive plan goes back to probing big first.
func TestAdaptiveOrderingReplansOnEpochAdvance(t *testing.T) {
	ctx := context.Background()
	sys := skewedSystem(t, WithAdaptiveOrdering())
	q, err := sys.Prepare(skewedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	order := func() []string {
		var names []string
		for _, g := range q.Plan().Groups {
			for _, s := range g {
				names = append(names, s.Rel.Name)
			}
		}
		return names
	}
	pos := func(names []string, rel string) int {
		for i, n := range names {
			if n == rel {
				return i
			}
		}
		t.Fatalf("relation %s not in plan order %v", rel, names)
		return -1
	}
	before := order()
	if pos(before, "small") > pos(before, "big") {
		t.Fatalf("initial adaptive order %v probes big before empty small", before)
	}

	// Grow small past big: 10x big's rows, one ingest batch, one epoch.
	var rows []Row
	for i := 0; i < 1100; i++ {
		rows = append(rows, Row{fmt.Sprintf("x%d", i), "c"})
	}
	if _, err := sys.Insert("small", rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	after := order()
	if pos(after, "big") > pos(after, "small") {
		t.Errorf("after ingest, adaptive order %v still probes small (now %d rows) before big", after, len(rows))
	}
}
