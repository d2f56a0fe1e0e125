package toorjah

// Benchmarks regenerating the paper's evaluation (one benchmark per table or
// figure), plus ablations of the individual optimizations. Access counts are
// reported as custom metrics next to wall time, since the paper's cost model
// is the number of accesses:
//
//	go test -bench=. -benchmem
//
// BenchmarkFig6_*     — paper Fig. 6 (publication schema, q1–q3)
// BenchmarkFig10      — paper Fig. 10 (random-workload aggregate)
// BenchmarkFig11_*    — paper Fig. 11 (execution time by query size)
// BenchmarkAblation_* — each optimization toggled off
// BenchmarkPlanning_* — cost of d-graph construction, GFP and plan generation
// BenchmarkPrepare/*  — System.Prepare on a planned shape and on a new one

import (
	"context"
	"fmt"
	"testing"
	"time"

	"toorjah/internal/cache"
	"toorjah/internal/core"
	"toorjah/internal/cq"
	"toorjah/internal/exec"
	"toorjah/internal/experiments"
	"toorjah/internal/gen"
	"toorjah/internal/plan"
	"toorjah/internal/schema"
	"toorjah/internal/source"
)

// benchPub prepares the Fig. 6 workload once per benchmark.
func benchPub(b testing.TB, tuples int) (*schema.Schema, *source.Registry) {
	b.Helper()
	cfg := gen.DefaultPublication()
	cfg.Tuples = tuples
	sch, db := gen.Publication(1, cfg)
	reg, err := source.FromDatabase(sch, db, 0)
	if err != nil {
		b.Fatal(err)
	}
	return sch, reg
}

func benchFig6Query(b *testing.B, queryIdx int, naive bool) {
	sch, reg := benchPub(b, 300)
	q, err := cq.Parse(gen.PublicationQueries[queryIdx])
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Prepare(sch, q)
	if err != nil {
		b.Fatal(err)
	}
	var accesses int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r *exec.Result
		if naive {
			r, err = exec.Naive(context.Background(), sch, reg, p.Query, p.Typing, exec.Options{}, nil)
		} else {
			r, err = exec.FastFailing(context.Background(), p.Plan, reg, exec.Options{}, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		accesses = r.TotalAccesses()
	}
	b.ReportMetric(float64(accesses), "accesses")
}

func BenchmarkFig6_Q1_Naive(b *testing.B)     { benchFig6Query(b, 0, true) }
func BenchmarkFig6_Q1_Optimized(b *testing.B) { benchFig6Query(b, 0, false) }
func BenchmarkFig6_Q2_Naive(b *testing.B)     { benchFig6Query(b, 1, true) }
func BenchmarkFig6_Q2_Optimized(b *testing.B) { benchFig6Query(b, 1, false) }
func BenchmarkFig6_Q3_Naive(b *testing.B)     { benchFig6Query(b, 2, true) }
func BenchmarkFig6_Q3_Optimized(b *testing.B) { benchFig6Query(b, 2, false) }

// BenchmarkFig10 runs one slice of the random-workload aggregate per
// iteration and reports the average saved-access fraction.
func BenchmarkFig10(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		st, err := experiments.RunFig10(context.Background(), int64(i+1), 2, 6, gen.Fig10())
		if err != nil {
			b.Fatal(err)
		}
		saved = st.Saved.Avg()
	}
	b.ReportMetric(100*saved, "%saved")
}

// benchFig11 measures one atom-count bucket of the Fig. 11 experiment.
func benchFig11(b *testing.B, atoms int) {
	cfg := gen.Fig10()
	cfg.MinAtoms, cfg.MaxAtoms = atoms, atoms
	var naiveMS, optMS float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig11(context.Background(), int64(i+1), 2, 5, 200*time.Microsecond, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			naiveMS = float64(r.NaiveTime.Microseconds()) / 1000
			optMS = float64(r.OptTime.Microseconds()) / 1000
		}
	}
	b.ReportMetric(naiveMS, "naive-ms")
	b.ReportMetric(optMS, "opt-ms")
}

func BenchmarkFig11_Atoms2(b *testing.B) { benchFig11(b, 2) }
func BenchmarkFig11_Atoms3(b *testing.B) { benchFig11(b, 3) }
func BenchmarkFig11_Atoms4(b *testing.B) { benchFig11(b, 4) }
func BenchmarkFig11_Atoms5(b *testing.B) { benchFig11(b, 5) }
func BenchmarkFig11_Atoms6(b *testing.B) { benchFig11(b, 6) }

// Ablations: q2 of the publication workload with one optimization disabled
// at a time (the design choices DESIGN.md calls out).
func benchAblation(b *testing.B, prepare core.Options, run exec.Options) {
	sch, reg := benchPub(b, 300)
	q, err := cq.Parse(gen.PublicationQueries[1])
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.PrepareOpts(sch, q, prepare)
	if err != nil {
		b.Fatal(err)
	}
	var accesses int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exec.FastFailing(context.Background(), p.Plan, reg, run, nil)
		if err != nil {
			b.Fatal(err)
		}
		accesses = r.TotalAccesses()
	}
	b.ReportMetric(float64(accesses), "accesses")
}

func BenchmarkAblation_Full(b *testing.B) {
	benchAblation(b, core.Options{}, exec.Options{})
}

func BenchmarkAblation_NoPruning(b *testing.B) {
	benchAblation(b, core.Options{SkipPruning: true}, exec.Options{})
}

func BenchmarkAblation_NoMetaCache(b *testing.B) {
	benchAblation(b, core.Options{}, exec.Options{NoMetaCache: true})
}

func BenchmarkAblation_NoEarlyFailure(b *testing.B) {
	benchAblation(b, core.Options{}, exec.Options{NoEarlyFailure: true})
}

func BenchmarkAblation_NoOrderingHeuristic(b *testing.B) {
	benchAblation(b, core.Options{Order: plan.OrderOptions{NoHeuristic: true}}, exec.Options{})
}

// BenchmarkPipelined measures the parallel engine against the sequential
// fast-failing strategy under per-access latency, reporting time-to-first-
// answer (the paper's pagination argument).
func BenchmarkPipelined(b *testing.B) {
	cfg := gen.SmallPublication()
	sch, db := gen.Publication(1, cfg)
	reg, err := source.FromDatabase(sch, db, 100*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	q, err := cq.Parse(gen.PublicationQueries[0])
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Prepare(sch, q)
	if err != nil {
		b.Fatal(err)
	}
	var first, total time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exec.Pipelined(context.Background(), p.Plan, reg, exec.Options{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		first, total = r.TimeToFirst, r.Elapsed
	}
	b.ReportMetric(float64(first.Microseconds()), "first-answer-µs")
	b.ReportMetric(float64(total.Microseconds()), "total-µs")
}

func BenchmarkSequentialWithLatency(b *testing.B) {
	cfg := gen.SmallPublication()
	sch, db := gen.Publication(1, cfg)
	reg, err := source.FromDatabase(sch, db, 100*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	q, err := cq.Parse(gen.PublicationQueries[0])
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Prepare(sch, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.FastFailing(context.Background(), p.Plan, reg, exec.Options{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Cross-query cache benchmarks: the same prepared query executed over and
// over, as a warm service (cmd/toorjahd) would — with the shared access
// cache, repeat executions collapse to zero source probes, so both the
// access count and the wall clock drop.
func benchCrossQuery(b *testing.B, c *cache.Cache, cfg gen.PublicationConfig, queryIdx int, latency time.Duration) {
	sch, db := gen.Publication(1, cfg)
	reg, err := source.FromDatabase(sch, db, latency)
	if err != nil {
		b.Fatal(err)
	}
	q, err := cq.Parse(gen.PublicationQueries[queryIdx])
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Prepare(sch, q)
	if err != nil {
		b.Fatal(err)
	}
	opts := exec.Options{Cache: c}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exec.FastFailing(context.Background(), p.Plan, reg, opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		total += r.TotalAccesses()
	}
	b.ReportMetric(float64(total)/float64(b.N), "accesses/op")
}

func pub300() gen.PublicationConfig {
	cfg := gen.DefaultPublication()
	cfg.Tuples = 300
	return cfg
}

func BenchmarkCrossQuery_Uncached(b *testing.B) {
	benchCrossQuery(b, nil, pub300(), 1, 0)
}

func BenchmarkCrossQuery_Cached(b *testing.B) {
	benchCrossQuery(b, cache.New(cache.Options{}), pub300(), 1, 0)
}

// With simulated per-access latency the cache's wall-clock win is directly
// proportional to the probes it absorbs (small instance: sleep granularity
// makes every probe cost ~1ms of wall clock).
func BenchmarkCrossQueryLatency_Uncached(b *testing.B) {
	benchCrossQuery(b, nil, gen.SmallPublication(), 0, 100*time.Microsecond)
}

func BenchmarkCrossQueryLatency_Cached(b *testing.B) {
	benchCrossQuery(b, cache.New(cache.Options{}), gen.SmallPublication(), 0, 100*time.Microsecond)
}

// The pipelined engine over a warm shared cache: the service steady state.
func benchCrossQueryPipelined(b *testing.B, c *cache.Cache) {
	cfg := gen.SmallPublication()
	sch, db := gen.Publication(1, cfg)
	reg, err := source.FromDatabase(sch, db, 100*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	q, err := cq.Parse(gen.PublicationQueries[0])
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Prepare(sch, q)
	if err != nil {
		b.Fatal(err)
	}
	opts := exec.Options{Cache: c}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exec.Pipelined(context.Background(), p.Plan, reg, opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		total += r.TotalAccesses()
	}
	b.ReportMetric(float64(total)/float64(b.N), "accesses/op")
}

func BenchmarkCrossQueryPipelined_Uncached(b *testing.B) {
	benchCrossQueryPipelined(b, nil)
}

func BenchmarkCrossQueryPipelined_Cached(b *testing.B) {
	benchCrossQueryPipelined(b, cache.New(cache.Options{}))
}

// Batched vs unbatched extraction under simulated per-access latency: a
// batch of N bindings pays the round-trip latency once, so the wall clock
// of a latency-bound extraction drops roughly with the mean batch size
// (accesses stay identical — the paper's cost model is untouched).
func benchBatch(b *testing.B, maxBatch int, pipelined bool) {
	cfg := gen.SmallPublication()
	sch, db := gen.Publication(1, cfg)
	reg, err := source.FromDatabase(sch, db, 2*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	q, err := cq.Parse(gen.PublicationQueries[0])
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Prepare(sch, q)
	if err != nil {
		b.Fatal(err)
	}
	opts := exec.Options{MaxBatch: maxBatch}
	var accesses, batches int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r *exec.Result
		if pipelined {
			r, err = exec.Pipelined(context.Background(), p.Plan, reg, exec.Options{MaxBatch: maxBatch}, nil)
		} else {
			r, err = exec.FastFailing(context.Background(), p.Plan, reg, opts, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		accesses, batches = r.TotalAccesses(), r.TotalBatches()
	}
	b.ReportMetric(float64(accesses), "accesses")
	b.ReportMetric(float64(batches), "roundtrips")
}

func BenchmarkBatchPipelined_Unbatched(b *testing.B) { benchBatch(b, -1, true) }
func BenchmarkBatchPipelined_Batch16(b *testing.B)   { benchBatch(b, 16, true) }
func BenchmarkBatchFastFail_Unbatched(b *testing.B)  { benchBatch(b, -1, false) }
func BenchmarkBatchFastFail_Batch16(b *testing.B)    { benchBatch(b, 16, false) }

// UCQ benchmarks: the same union executed disjunct-by-disjunct vs
// concurrently, under per-access source latency. The three disjuncts share
// their conf/rev tail, so the parallel run overlaps most of its latency
// bill; the access count is identical either way (the paper's cost model is
// untouched by concurrency) and is the gated metric.
const benchUCQText = `
q(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)
q(R) :- pub2(P, R), conf(P, C, Y), rev(R, C, Y)
q(R) :- sub(P, R), conf(P, C, Y), rev(R, C, Y)
`

func benchUCQSystem(b testing.TB, opts ...SystemOption) *UnionQuery {
	b.Helper()
	sch, db := gen.Publication(1, gen.SmallPublication())
	sys := NewSystem(sch, append([]SystemOption{WithLatency(2 * time.Millisecond)}, opts...)...)
	if err := sys.BindDatabase(db); err != nil {
		b.Fatal(err)
	}
	u, err := sys.PrepareUCQ(benchUCQText)
	if err != nil {
		b.Fatal(err)
	}
	return u
}

func benchUCQ(b *testing.B, parallel bool) {
	u := benchUCQSystem(b)
	var accesses, batches int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r *Result
		var err error
		if parallel {
			r, err = u.Execute(context.Background(), WithExecOptions(Options{MaxConcurrent: len(u.Disjuncts())}))
		} else {
			r, err = u.Execute(context.Background(), WithExecOptions(Options{MaxConcurrent: -1}))
		}
		if err != nil {
			b.Fatal(err)
		}
		accesses, batches = r.TotalAccesses(), r.TotalBatches()
	}
	b.ReportMetric(float64(accesses), "accesses")
	b.ReportMetric(float64(batches), "roundtrips")
}

func BenchmarkUCQ_Sequential(b *testing.B) { benchUCQ(b, false) }
func BenchmarkUCQ_Parallel(b *testing.B)   { benchUCQ(b, true) }

// The parallel union over a cross-query cache: overlapping disjuncts share
// probes through hits and singleflight, so the whole union costs fewer
// source accesses than the sum of its disjuncts run in isolation.
func BenchmarkUCQ_ParallelCached(b *testing.B) {
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u := benchUCQSystem(b, WithCache(cache.Options{})) // cold cache per iteration
		b.StartTimer()
		r, err := u.Execute(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		total += r.TotalAccesses()
	}
	b.ReportMetric(float64(total)/float64(b.N), "accesses/op")
}
func BenchmarkPlanning_Q3(b *testing.B) {
	sch := schema.MustParse(gen.PublicationSchemaText)
	q, err := cq.Parse(gen.PublicationQueries[2])
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.Prepare(sch, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanning_RandomLarge(b *testing.B) {
	cfg := gen.Fig10()
	cfg.MinRelations, cfg.MaxRelations = 10, 10
	cfg.MinAtoms, cfg.MaxAtoms = 6, 6
	g := gen.New(3, cfg)
	sch := g.Schema()
	var queries []*cq.CQ
	for i := 0; i < 5; i++ {
		if q, ok := g.Query(sch, fmt.Sprintf("q%d", i)); ok {
			queries = append(queries, q)
		}
	}
	if len(queries) == 0 {
		b.Skip("no queries generated")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Prepare(sch, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepare is the prepare layer as the façade and /query pay it:
// the text of a point lookup (serve-cold's) with a constant never seen
// before but a shape already planned — parse, shape key, one lookup — and
// the same text, and paper q3, when the shape is new and has to be planned.
// The cold cases make a shape new by renaming the head predicate.
func BenchmarkPrepare(b *testing.B) {
	serve := schema.MustParse("pub^oo(P, T)\ncat^oo(P, T)\nconf^ioo(P, C, Y)")
	pub := schema.MustParse(gen.PublicationSchemaText)
	q3 := gen.PublicationQueries[2][len("q3"):]
	for _, c := range []struct {
		name string
		sch  *schema.Schema
		text func(i int) string
		warm bool
	}{
		{"point-warm-shape", serve, func(i int) string { return fmt.Sprintf("q(C, Y) :- conf(p%d, C, Y)", i) }, true},
		{"point-cold-shape", serve, func(i int) string { return fmt.Sprintf("q%d(C, Y) :- conf(p7, C, Y)", i) }, false},
		{"q3-cold-shape", pub, func(i int) string { return fmt.Sprintf("q%d%s", i, q3) }, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			sys := NewSystem(c.sch)
			texts := make([]string, b.N+1)
			for i := range texts {
				texts[i] = c.text(i)
			}
			if _, err := sys.Prepare(texts[b.N]); err != nil { // bind the sources; plan the warm shape
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Prepare(texts[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := sys.PlanCacheStats(); c.warm != (st.Misses == 1) {
				b.Fatalf("plan cache = %+v", st)
			}
		})
	}
}
