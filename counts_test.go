package toorjah

import (
	"context"
	"fmt"
	"testing"

	"toorjah/internal/cache"
	"toorjah/internal/core"
	"toorjah/internal/cq"
	"toorjah/internal/exec"
	"toorjah/internal/gen"
)

// TestExactAccessCounts pins the paper's cost model — the number of
// accesses, and where it is deterministic the number of round trips — on
// the fixtures the benchmarks build, exactly: the benchmark gate tolerates
// 25% and runs in CI only, while an executor change that moves one access
// fails here, in `go test ./...`. -1 leaves a round-trip count unpinned
// (concurrent round trips batch by timing).
func TestExactAccessCounts(t *testing.T) {
	ctx := context.Background()
	sch, reg := benchPub(t, 300)
	p, err := core.Prepare(sch, cq.MustParse(gen.PublicationQueries[1]))
	if err != nil {
		t.Fatal(err)
	}
	planOf := func(query string) *Plan {
		p, err := core.Prepare(sch, cq.MustParse(query))
		if err != nil {
			t.Fatal(err)
		}
		return p.Plan
	}
	q1, q3 := planOf(gen.PublicationQueries[0]), planOf(gen.PublicationQueries[2])
	execute := func(sys *System, query string) func() (*Result, error) {
		return func() (*Result, error) {
			q, err := sys.Prepare(query)
			if err != nil {
				return nil, err
			}
			return q.Execute(ctx)
		}
	}
	for _, tc := range []struct {
		name                 string
		run                  func() (*Result, error)
		accesses, roundTrips int
	}{
		{"q2 fast-fail", func() (*Result, error) {
			return exec.FastFailing(ctx, p.Plan, reg, exec.Options{}, nil)
		}, 42845, 2680},
		{"q2 pipelined", func() (*Result, error) {
			return exec.Pipelined(ctx, p.Plan, reg, exec.Options{}, nil)
		}, 42845, -1},
		{"q2 naive", func() (*Result, error) {
			return exec.Naive(ctx, sch, reg, p.Query, p.Typing, exec.Options{}, nil)
		}, 125965, -1},
		{"ucq sequential", func() (*Result, error) {
			return benchUCQSystem(t).Execute(ctx, WithExecOptions(Options{MaxConcurrent: -1}))
		}, 102, 13},
		{"ucq parallel", func() (*Result, error) {
			return benchUCQSystem(t).Execute(ctx)
		}, 102, 13},
		{"ucq parallel, cold shared cache", func() (*Result, error) {
			return benchUCQSystem(t, WithCache(cache.Options{})).Execute(ctx)
		}, 86, -1},
		{"remote fast-fail, unbatched", execute(benchRemoteSystem(t, -1), gen.PublicationQueries[0]), 46, 46},
		{"remote fast-fail, batch 16", execute(benchRemoteSystem(t, 16), gen.PublicationQueries[0]), 46, 5},
		{"skewed join, static order", execute(skewedSystem(t), skewedQuery), 21, -1},
		{"q1 fast-fail", func() (*Result, error) {
			return exec.FastFailing(ctx, q1, reg, exec.Options{}, nil)
		}, 233, 17},
		{"q3 fast-fail", func() (*Result, error) {
			return exec.FastFailing(ctx, q3, reg, exec.Options{}, nil)
		}, 214, 16},
		{"q3 fast-fail, no early failure", func() (*Result, error) {
			return exec.FastFailing(ctx, q3, reg, exec.Options{NoEarlyFailure: true}, nil)
		}, 1289, 85},
		{"q3 pipelined", func() (*Result, error) {
			return exec.Pipelined(ctx, q3, reg, exec.Options{}, nil)
		}, 1289, -1},
		{"q3 pipelined, no meta-cache", func() (*Result, error) {
			return exec.Pipelined(ctx, q3, reg, exec.Options{NoMetaCache: true}, nil)
		}, 1501, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.TotalAccesses(); got != tc.accesses {
				t.Errorf("%d accesses, want exactly %d", got, tc.accesses)
			}
			if got := res.TotalBatches(); tc.roundTrips >= 0 && got != tc.roundTrips {
				t.Errorf("%d round trips, want exactly %d", got, tc.roundTrips)
			}
		})
	}
}

// skewedSystem builds a skewed join: seed feeds a key into two
// order-equivalent joined relations, big (many rows) and small (empty), so
// the only thing ordering changes is how early the fast-failing executor
// notices the join is empty. The query lists big before small, so the
// static tie-break (equal join scores, source-ID order) probes big first.
func skewedSystem(t testing.TB) *System {
	t.Helper()
	sch, err := ParseSchema(`
		seed^o(A)
		big^io(A, B)
		small^io(A, C)`)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch)
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
