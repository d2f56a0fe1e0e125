package toorjah

import (
	"context"
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
		{"skewed join, adaptive order", execute(skewedSystem(t, WithAdaptiveOrdering()), skewedQuery), 11, -1},
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
