package exec

import (
	"context"
	"fmt"
	"testing"
	"time"

	"toorjah/internal/gen"
)

// q2Fixture is the paper's Fig. 6 query q2 over the publication instance
// the benchmarks use (seed 1, 300 tuples per relation): 42845 accesses,
// almost all of them two-ID bindings of rev_icde that match nothing — the
// workload on which per-access bookkeeping, not probing, used to dominate.
func q2Fixture(t testing.TB) *fixture {
	t.Helper()
	cfg := gen.DefaultPublication()
	cfg.Tuples = 300
	sch, db := gen.Publication(1, cfg)
	return setupDB(t, sch, db, gen.PublicationQueries[1])
}

const q2Accesses = 42845

// TestFastFailQ2AllocBudget pins the flat access path: a warm fast-fail
// execution of q2 allocates per pass and per extracted tuple, never per
// access. At 42845 accesses one allocation per access would already blow
// the budget — 2 919 measured, plus 10% — so a per-binding copy, a key
// string, a head tuple per derived value or map growth creeping back fails
// here rather than in a benchmark nobody reads.
func TestFastFailQ2AllocBudget(t *testing.T) {
	f := q2Fixture(t)
	run := func() {
		res, err := FastFailing(context.Background(), f.plan, f.reg, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.TotalAccesses(); got != q2Accesses {
			t.Fatalf("q2 made %d accesses, want %d", got, q2Accesses)
		}
	}
	run() // warm: build the storage indexes, size the scratch
	const budget = 3200
	if allocs := testing.AllocsPerRun(5, run); allocs > budget {
		t.Errorf("a warm q2 execution makes %.0f allocations for %d accesses, budget %d", allocs, q2Accesses, budget)
	}
}

// BenchmarkFastFailQ2 times warm fast-fail executions of q2 — the repo
// benchmark's paper-q2 workload without the façade around it.
func BenchmarkFastFailQ2(b *testing.B) {
	f := q2Fixture(b)
	ctx := context.Background()
	var accesses int
	run := func() {
		res, err := FastFailing(ctx, f.plan, f.reg, Options{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		accesses = res.TotalAccesses()
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(accesses), "accesses")
}

// runPipelinedQ2 executes q2 pipelined and checks the paper's access count.
func runPipelinedQ2(t testing.TB, f *fixture) *Result {
	res, err := Pipelined(context.Background(), f.plan, f.reg, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TotalAccesses(); got != q2Accesses {
		t.Fatalf("pipelined q2 made %d accesses, want %d", got, q2Accesses)
	}
	return res
}

// TestPipelinedQ2 pins the coordinator's cost: q2 keeps tens of thousands
// of access tuples pending on one relation, and a coordinator that re-offers
// every pending job after every probe result is quadratic in them (33 s
// before dispatch became O(dispatched), against 22 ms for fast-fail).
func TestPipelinedQ2(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size q2 instance")
	}
	f := q2Fixture(t)
	want := f.fast(t).SortedAnswers()
	start := time.Now()
	res := runPipelinedQ2(t, f)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pipelined q2 took %s, want under 2s", elapsed)
	}
	if got := res.SortedAnswers(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pipelined q2 answers = %v, fast-fail = %v", got, want)
	}
}

// BenchmarkPipelinedQ2 times warm pipelined executions of q2.
func BenchmarkPipelinedQ2(b *testing.B) {
	f := q2Fixture(b)
	runPipelinedQ2(b, f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPipelinedQ2(b, f)
	}
	b.ReportMetric(q2Accesses, "accesses")
}
