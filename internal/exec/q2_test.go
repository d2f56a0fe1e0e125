package exec

import (
	"context"
	"fmt"
	"testing"
	"time"

	"toorjah/internal/datalog"
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
// access and never per round trip. It measures 153 allocations for 42845
// accesses in 2680 round trips; the budget is 180, so one allocation per
// round trip — a result slice the source makes instead of filling the
// caller's — already fails here, as does a per-binding copy, a key string,
// map growth or cache indexes rebuilt from nothing creeping back, rather than
// in a benchmark nobody reads.
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
	// The best of eight runs: under the race detector sync.Pool drops a
	// quarter of what is put back, and a run that finds the scratch gone
	// rebuilds it (some 230 allocations). What the budget guards against
	// shows in every run.
	const budget = 180
	allocs := testing.AllocsPerRun(1, run)
	for i := 1; i < 8; i++ {
		allocs = min(allocs, testing.AllocsPerRun(1, run))
	}
	if allocs > budget {
		t.Errorf("a warm q2 execution makes %.0f allocations for %d accesses, budget %d", allocs, q2Accesses, budget)
	}
}

// BenchmarkFastFailQ2 times warm fast-fail executions of q2 — the repo
// benchmark's paper-q2 workload without the façade around it — and reports
// the time per access, the paper's unit of cost.
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
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accesses), "ns/access")
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

// TestPipelinedQ2AllocBudget pins where a pipelined run makes the round
// trips of a source that cannot block: on its coordinator, as fast-fail does,
// so a warm q2 over plain tables allocates per pass and per extracted tuple —
// no goroutine, closure or channel hand-off for each of its 2680 round trips
// (5642 allocations when it started one per round trip). It measures 136; the
// budget is 180, the best of eight runs, as for fast-fail.
func TestPipelinedQ2AllocBudget(t *testing.T) {
	f := q2Fixture(t)
	run := func() { runPipelinedQ2(t, f) }
	run() // warm: build the storage indexes, size the scratch
	const budget = 180
	allocs := testing.AllocsPerRun(1, run)
	for i := 1; i < 8; i++ {
		allocs = min(allocs, testing.AllocsPerRun(1, run))
	}
	if allocs > budget {
		t.Errorf("a warm pipelined q2 execution makes %.0f allocations for %d accesses, budget %d", allocs, q2Accesses, budget)
	}
}

// BenchmarkPipelinedQ2 times warm pipelined executions of q2, per execution
// and per access.
func BenchmarkPipelinedQ2(b *testing.B) {
	f := q2Fixture(b)
	runPipelinedQ2(b, f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPipelinedQ2(b, f)
	}
	b.ReportMetric(q2Accesses, "accesses")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*q2Accesses), "ns/access")
}

// TestRecycledSlotsHoldNoRow: a flight's result slots and the naive
// executor's go back to the pool empty — the rows a run extracted are the
// sources', and a pooled scratch must not keep a table version reachable
// after the run that read it.
func TestRecycledSlotsHoldNoRow(t *testing.T) {
	row := []datalog.Tuple{datalog.T("a", "b")}
	sc := getScratch()
	fl := sc.flight(2)
	copy(fl.rows, [][]datalog.Tuple{row, row})
	sc.recycle(fl)
	sc.slots = append(sc.slots, row, row)
	sc.release()
	for name, slots := range map[string][][]datalog.Tuple{"flight": fl.rows, "naive": sc.slots} {
		for i, rows := range slots[:cap(slots)] {
			if rows != nil {
				t.Errorf("%s slot %d still holds %v", name, i, rows)
			}
		}
	}
}
