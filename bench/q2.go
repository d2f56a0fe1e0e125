package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"toorjah"
	"toorjah/internal/gen"
)

// Sizes of the paper's publication instance (Section V): q2Tuples per
// relation is what the repo's BenchmarkAblation_Full runs, and what costs
// 42845 accesses at seed 1 against the naive algorithm's 125965 (Fig. 6).
const (
	q2Tuples      = 300
	q2QuickTuples = 40
	// q2BallastBytes of pointer-free memory stand in for the heap of the
	// application around the library. With nothing live but the instance's
	// own 8 MB the collector runs twice per execution (15 MB allocated
	// each), and what the run then times is the collector's scheduling — on
	// the shared sandbox host the noisiest thing there is: in the same
	// stressed minutes the fastest hundredth spread over 22% without the
	// ballast and 8% with it. With it the collector runs about every fifth
	// execution, as it does on the service workloads with their 150 MB
	// tables; its cost shows in the whole-phase figures and runtime.*.
	q2BallastBytes = 64 << 20
)

func publicationSystem(seed int64, tuples int) (*toorjah.System, error) {
	pc := gen.DefaultPublication()
	pc.Tuples = tuples
	sch, db := gen.Publication(seed, pc)
	sys := toorjah.NewSystem(sch)
	if err := sys.BindDatabase(db); err != nil {
		return nil, err
	}
	return sys, nil
}

func digestResult(res *toorjah.Result) answerSet {
	var a answerSet
	for _, t := range res.Answers.Tuples() {
		a.add(answerLine(t.Strings()))
	}
	return a
}

// setupPaperQ2 is the library path: no HTTP, no cache, no WAL. One caller
// prepares q2 once and executes it with the library's default strategy
// (fast-fail), so exec, datalog, storage index probes and sym do all the
// work. The batch strategies deliver every answer at completion, so the time
// to the first answer is the time to the result.
func setupPaperQ2(cfg runConfig, _, _ *middleware) (*instance, error) {
	tuples := q2Tuples
	if cfg.quick {
		tuples = q2QuickTuples
	}
	sys, err := publicationSystem(cfg.seed, tuples)
	if err != nil {
		return nil, err
	}
	text := gen.PublicationQueries[1]
	q, err := sys.Prepare(text)
	if err != nil {
		return nil, err
	}
	// Ground truth: the naive algorithm's answers on the same data. The
	// optimized plan must give the same set; its access count must repeat
	// exactly from one execution to the next.
	ref, err := q.Execute(context.Background(), toorjah.WithExecutor(toorjah.ExecutorNaive))
	if err != nil {
		return nil, fmt.Errorf("naive reference: %w", err)
	}
	want := digestResult(ref)
	wantAccesses := -1

	// run executes q once and checks the result; timed says whether the
	// execution counts as a sample of the timed phase.
	run := func(ctx context.Context, cl *client, q *toorjah.Query, timed bool) (time.Duration, bool) {
		rec := cl.rec
		rec.attempted++
		start := time.Now()
		res, err := q.Execute(ctx)
		total := time.Since(start)
		if err != nil {
			rec.fail(err.Error())
			return total, false
		}
		rep := reply{Status: 200, Done: true, Truncated: res.Truncated, Got: digestResult(res), Accesses: res.TotalAccesses()}
		if wantAccesses < 0 {
			wantAccesses = rep.Accesses
		}
		if why := rep.check(want, wantAccesses); why != "" {
			rec.fail(why)
			return total, false
		}
		if timed {
			rec.addQuery(start, total, total, rep.Accesses)
			rec.batches += int64(res.TotalBatches())
		}
		return total, true
	}

	var ballast []byte // reachable through the closures for as long as the instance is
	inst := &instance{close: func() { runtime.KeepAlive(ballast) }, rssOps: 200}
	inst.warm = func(ctx context.Context, cl *client) error {
		if !cfg.quick {
			ballast = make([]byte, q2BallastBytes) // never touched, so never resident
		}
		for i := 0; i < 3; i++ {
			run(ctx, cl, q, false)
		}
		return nil
	}
	inst.op = func(ctx context.Context, cl *client, tr *tracer) {
		cl.ops++
		if tr == nil {
			run(ctx, cl, q, true)
			return
		}
		// Traced: spans around the two facade calls a caller makes.
		start := time.Now()
		fresh, err := sys.Prepare(text)
		prepared := time.Now()
		if err != nil {
			cl.rec.attempted++
			cl.rec.fail(err.Error())
			return
		}
		total, ok := run(ctx, cl, fresh, false)
		if !ok {
			return
		}
		root := &spanNode{Name: "client", StartUS: tr.us(start), DurUS: us(time.Since(start))}
		root.child("prepare", tr.us(start), us(prepared.Sub(start)))
		root.child("execute", tr.us(prepared), us(total))
		tr.queries++
		tr.ops = append(tr.ops, opTrace{Op: len(tr.ops) + 1, Kind: "query", Root: root})
	}
	inst.direct = func() (map[string]float64, error) { return directQ2(cfg) }
	if cfg.quick {
		inst.maxOps = 30
	}
	return inst, nil
}
