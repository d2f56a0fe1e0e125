package exec

import (
	"context"
	"fmt"
	"testing"

	"toorjah/internal/cache"
	"toorjah/internal/obs"
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
// joins: a warm scan allocates per growth step of what it builds — the
// answer relation, the cache indexes — and per round trip, not per
// extraction, per derived tuple or per answer (136 allocations for 512
// answers and 129 accesses). Re-deriving the domains after every probe
// result (115 894 allocations before the domains were maintained from
// deltas), a join that allocates per call or per head (4 264 while an
// interpreter ran the rules), or compiling anything during an execution of
// a planned shape fails here rather than in a benchmark nobody reads.
func TestPipelinedScanAllocBudget(t *testing.T) {
	f, opts := scanFixture(t)
	run := func() { runWarmScan(t, f, opts) }
	run() // size the scratch
	const budget = 500
	if allocs := testing.AllocsPerRun(5, run); allocs > budget {
		t.Errorf("a warm scan makes %.0f allocations for %d answers, budget %d", allocs, scanAnswers, budget)
	}
}

// BenchmarkPipelinedScan times warm pipelined executions of the scan.
func BenchmarkPipelinedScan(b *testing.B) {
	f, opts := scanFixture(b)
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
