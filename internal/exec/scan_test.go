package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"toorjah/internal/cache"
	"toorjah/internal/datalog"
	"toorjah/internal/obs"
	"toorjah/internal/plan"
	"toorjah/internal/storage"
)

const (
	scanPersons  = 128
	scanAnswers  = 4 * scanPersons // 2 cat rows × 2 conf rows per person
	scanAccesses = 1 + scanPersons // the free cat access, one conf access per person
)

// scanFixture is the repo benchmark's serve-scan workload without the
// service around it: a two-atom join whose every access (one free scan of
// cat, one conf probe per person) is answered by a warm cross-query cache,
// so what an execution costs is the pipelined executor's own loop — domain
// maintenance, dispatch, the incremental join — and nothing else.
func scanFixture(t testing.TB) (*fixture, Options) {
	t.Helper()
	var cat, conf []storage.Row
	for k := 0; k < scanPersons; k++ {
		p := fmt.Sprintf("p%d", k)
		for j := 0; j < 2; j++ {
			cat = append(cat, storage.Row{p, fmt.Sprintf("t%d_%d", k, j)})
			conf = append(conf, storage.Row{p, fmt.Sprintf("c%d", (k%60)*2+j), fmt.Sprintf("y%d", 1990+k%30)})
		}
	}
	sch := `
cat^oo(P, T)
conf^ioo(P, C, Y)
`
	f := setup(t, sch, "q(T, C) :- cat(P, T), conf(P, C, Y)", map[string][]storage.Row{"cat": cat, "conf": conf})
	opts := Options{Cache: cache.New(cache.Options{})}
	cold, err := Pipelined(context.Background(), f.plan, f.reg, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Answers.Len() != scanAnswers || cold.TotalAccesses() != scanAccesses {
		t.Fatalf("cold scan: %d answers, %d accesses; want %d, %d",
			cold.Answers.Len(), cold.TotalAccesses(), scanAnswers, scanAccesses)
	}
	return f, opts
}

// runWarmScan executes the scan against the warm cache and checks that it
// reached no source.
func runWarmScan(t testing.TB, f *fixture, opts Options) {
	res, err := Pipelined(context.Background(), f.plan, f.reg, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != scanAnswers || res.TotalAccesses() != 0 || res.Truncated {
		t.Fatalf("warm scan: %d answers, %d accesses, truncated=%v; want %d, 0, false",
			res.Answers.Len(), res.TotalAccesses(), res.Truncated, scanAnswers)
	}
}

// TestPipelinedScanAllocBudget pins delta-driven distillation over compiled
// joins: a warm scan allocates its Result and per round trip, not per
// extraction, per derived tuple or per answer (25 allocations for 512
// answers and 129 accesses). Re-deriving the domains after every probe
// result (115 894 allocations before the domains were maintained from
// deltas), a join that allocates per call or per head (4 264 while an
// interpreter ran the rules), rebuilding the cache indexes (90 allocations
// before they survived the scratch), or compiling anything during an
// execution of a planned shape fails here rather than in a benchmark nobody
// reads. The best of eight runs, as for the q2 budgets: a run that finds the
// pooled scratch gone rebuilds it.
func TestPipelinedScanAllocBudget(t *testing.T) {
	f, opts := scanFixture(t)
	checkScanAllocs(t, f, opts, 60)
}

// TestPipelinedScanBlockingAllocBudget is the same budget for the scan behind
// sources that can block — what a server whose relations are remote runs:
// its nine round trips run on goroutines, which costs per round trip, not
// per access or per answer (41 allocations).
func TestPipelinedScanBlockingAllocBudget(t *testing.T) {
	f, opts := scanFixture(t)
	checkScanAllocs(t, f.blocking(), opts, 48)
}

// checkScanAllocs fails when a warm scan makes more than budget allocations,
// the best of eight runs: a run that finds the pooled scratch gone rebuilds
// it.
func checkScanAllocs(t *testing.T, f *fixture, opts Options, budget float64) {
	run := func() { runWarmScan(t, f, opts) }
	run() // size the scratch
	allocs := testing.AllocsPerRun(1, run)
	for i := 1; i < 8; i++ {
		allocs = min(allocs, testing.AllocsPerRun(1, run))
	}
	if allocs > budget {
		t.Errorf("a warm scan makes %.0f allocations for %d answers, budget %.0f", allocs, scanAnswers, budget)
	}
}

// bytesAllocated returns what one call of f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPipelinedScanByteBudget: a warm scan allocates about what its Result's
// answer relation needs — 512 answers of two IDs, their headers and their
// membership table, some 25 KB — and little else. The cache relations come
// back from the scratch with their indexes emptied, not discarded, and the
// answer relation is sized from the shape's last run, not doubled into (107
// KB before either). The best of eight runs, as for the allocation count.
func TestPipelinedScanByteBudget(t *testing.T) {
	f, opts := scanFixture(t)
	run := func() { runWarmScan(t, f, opts) }
	run() // size the scratch
	const budget = 32 << 10
	least := bytesAllocated(run)
	for i := 1; i < 8; i++ {
		least = min(least, bytesAllocated(run))
	}
	if least > budget {
		t.Errorf("a warm scan allocates %d bytes for %d answers, budget %d", least, scanAnswers, budget)
	}
}

// TestAnswerHintIsCapped: a run sizes its answer relation from the last run
// of its shape, up to maxAnswerHint answers. So a one-answer run that
// follows a run of four times that many allocates at most the cap's worth
// (and a page of slack) more than one that follows a one-answer run.
func TestAnswerHintIsCapped(t *testing.T) {
	const big = 4 * maxAnswerHint
	rows := []storage.Row{{"small", "v"}}
	for i := 0; i < big; i++ {
		rows = append(rows, storage.Row{"big", fmt.Sprintf("v%d", i)})
	}
	f := setup(t, "r^io(K, V)\n", "q(V) :- r(big, V)", map[string][]storage.Row{"r": rows})
	small := f.plan.Bind([]string{"small"})
	run := func(p *plan.Plan, want int) func() {
		return func() {
			res, err := FastFailing(context.Background(), p, f.reg, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Answers.Len(); n != want {
				t.Fatalf("%d answers for %s, want %d", n, p.Consts[0], want)
			}
		}
	}
	runBig, runSmall := run(f.plan, big), run(small, 1)
	runBig() // size the scratch
	capWorth := bytesAllocated(func() { datalog.NewRelation("q", 1).Grow(maxAnswerHint) })
	afterBig, afterSmall := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runBig()
		afterBig = min(afterBig, bytesAllocated(runSmall))
		afterSmall = min(afterSmall, bytesAllocated(runSmall))
	}
	if afterBig > afterSmall+capWorth+4096 {
		t.Errorf("a one-answer run allocates %d bytes after a run of %d answers, %d after a one-answer run: more than the cap's worth (%d) apart",
			afterBig, big, afterSmall, capWorth)
	}
}

// BenchmarkPipelinedScan times warm pipelined executions of the scan.
func BenchmarkPipelinedScan(b *testing.B) {
	f, opts := scanFixture(b)
	benchWarmScan(b, f, opts)
}

// BenchmarkPipelinedScanBlocking times them behind sources that can block,
// as the serve-scan workload of the repo benchmark runs them: the cache
// answers every access, on the round trips' goroutines.
func BenchmarkPipelinedScanBlocking(b *testing.B) {
	f, opts := scanFixture(b)
	benchWarmScan(b, f.blocking(), opts)
}

func benchWarmScan(b *testing.B, f *fixture, opts Options) {
	runWarmScan(b, f, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runWarmScan(b, f, opts)
	}
}

// TestExecutionCostIgnoresUnprobedRelations: an execution opens the access
// paths of the relations its plan probes and no others, so what a warm
// point query allocates does not grow with the schema around it — with the
// cache and a server's metric families both on. Wrapping every bound source
// per run cost three allocations and more per unrelated relation.
func TestExecutionCostIgnoresUnprobedRelations(t *testing.T) {
	warmPointQueryAllocs := func(unrelated int) float64 {
		sch := "conf^ioo(P, C, Y)\n"
		for i := 0; i < unrelated; i++ {
			sch += fmt.Sprintf("x%d^o(A)\n", i)
		}
		f := setup(t, sch, "q(C, Y) :- conf(p1, C, Y)", map[string][]storage.Row{
			"conf": {{"p1", "icde", "y2008"}, {"p2", "vldb", "y2007"}},
		})
		metrics := obs.NewRegistry()
		opts := Options{Cache: cache.New(cache.Options{}), Metrics: obs.NewProbeMetrics(metrics)}
		run := func() {
			res, err := Pipelined(context.Background(), f.plan, f.reg, opts, nil)
			if err != nil || res.Answers.Len() != 1 {
				t.Fatalf("point query over %d unrelated relations: %v, %v", unrelated, res, err)
			}
			if res.Demanded != 1 {
				t.Fatalf("point query: %d accesses demanded, want 1", res.Demanded)
			}
		}
		run() // fill the cache, size the scratch
		allocs := testing.AllocsPerRun(50, run)
		// One access asked for on every run; only the first reached conf.
		if m := metered(t, metrics); m.Accesses != 1 {
			t.Fatalf("point query: %+v metered over all runs, want 1 access", m)
		}
		return allocs
	}
	// A run that finds the scratch pool empty — after a collection, or
	// because the race detector makes pools forget at random — rebuilds its
	// scratch, so the two averages differ by noise: the slack is half an
	// allocation per relation added.
	const slack = 25
	alone, crowded := warmPointQueryAllocs(0), warmPointQueryAllocs(50)
	if crowded > alone+slack {
		t.Errorf("a warm point query allocates %.0f times alone and %.0f times beside 50 unrelated relations", alone, crowded)
	}
}
