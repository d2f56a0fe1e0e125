package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"toorjah/internal/cache"
	"toorjah/internal/oracle"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// wideFixture joins three relations with fan-out, so each round generates
// many fresh bindings — the shape batching is for.
func wideFixture(t *testing.T, n int) *fixture {
	t.Helper()
	var free, mid, last []storage.Row
	for i := 0; i < n; i++ {
		free = append(free, storage.Row{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%7)})
		mid = append(mid, storage.Row{fmt.Sprintf("b%d", i%7), fmt.Sprintf("c%d", i)})
		last = append(last, storage.Row{fmt.Sprintf("c%d", i), fmt.Sprintf("d%d", i%5)})
	}
	return setup(t, `
free^oo(A, B)
mid^io(B, C)
last^io(C, D)
`, "q(X, W) :- free(X, Y), mid(Y, Z), last(Z, W)", map[string][]storage.Row{
		"free": free,
		"mid":  mid,
		"last": last,
	})
}

// recursiveFixture is the paper's Example 1 shape: the only way into the
// limited sources is a free relation the query never mentions.
func recursiveFixture(t *testing.T) *fixture {
	return setup(t, `
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`, "q(N) :- r1(A, N, Y1), r2(volare, Y2, A)", map[string][]storage.Row{
		"r1": {
			{"modugno", "italy", "1928"},
			{"madonna", "usa", "1958"},
			{"dylan", "usa", "1941"},
		},
		"r2": {
			{"volare", "1958", "modugno"},
			{"vogue", "1990", "madonna"},
			{"hurricane", "1976", "dylan"},
		},
		"r3": {
			{"madonna", "like_a_virgin"},
			{"dylan", "desire"},
		},
	})
}

// TestBatchingInvariance is the batching soundness property: every executor
// must produce the identical answer set and the identical access count with
// batching off, at 1, at a small bound, and at the default — a batch is
// just N accesses folded into one round trip. The oracle holds the answers
// and counts (batching-invariant) beside its own matrix; the round trips are
// checked here.
func TestBatchingInvariance(t *testing.T) {
	fixtures := map[string]func(*testing.T) *fixture{
		"wide":      func(t *testing.T) *fixture { return wideFixture(t, 60) },
		"recursive": recursiveFixture,
		"chain":     chainFixture,
	}
	for name, mk := range fixtures {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			c := f.oracleCase(t)
			checkExecutors(t, c, f.reg, map[string]*cache.Cache{})
			for _, mb := range []int{-1, 1, 3, DefaultMaxBatch} {
				opts := Options{MaxBatch: mb}
				nr, err1 := Naive(context.Background(), f.sch, f.reg, f.q, f.ty, opts, nil)
				fr, err2 := FastFailing(context.Background(), f.plan, f.reg, opts, nil)
				pr, err3 := Pipelined(context.Background(), f.plan, f.reg, opts, nil)
				if err := errors.Join(err1, err2, err3); err != nil {
					t.Fatalf("MaxBatch=%d: %v", mb, err)
				}
				for strat, r := range map[string]*Result{"naive": nr, "fast-fail": fr, "pipelined": pr} {
					o := oracle.Outcome{Count: r.TotalAccesses(), Batching: fmt.Sprint(strat, false)}
					for _, tup := range r.Answers.Tuples() {
						o.Answers = append(o.Answers, oracle.Key(tup.Strings()))
					}
					oracle.Check(t, c, fmt.Sprintf("%s MaxBatch=%d", strat, mb), o)
					if b := r.TotalBatches(); b > o.Count || mb <= 1 && b != o.Count {
						t.Errorf("MaxBatch=%d %s: %d round trips for %d accesses", mb, strat, b, o.Count)
					}
				}
			}
		})
	}
}

// TestBatchingSavesRoundTrips: with fan-out and the default bound, the
// sequential executors actually fold accesses into fewer round trips.
func TestBatchingSavesRoundTrips(t *testing.T) {
	f := wideFixture(t, 60)
	r, err := FastFailing(context.Background(), f.plan, f.reg, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalBatches() >= r.TotalAccesses() {
		t.Errorf("batches = %d, accesses = %d: default batching saved nothing",
			r.TotalBatches(), r.TotalAccesses())
	}
}

// accessBudget cancels a context once a total number of accesses has been
// spent across every source of a fixture. By default the sources keep
// serving (the run must stop because the executor checks the context, not
// because a source fails); with abort set, the probe that exhausts the
// budget — and every later one — fails with the context's error, the way a
// round trip cut off by the cancellation does.
type accessBudget struct {
	mu     sync.Mutex
	budget int
	cancel context.CancelFunc
	abort  bool
}

// cancelSource routes one relation's accesses through the shared budget.
type cancelSource struct {
	source.Wrapper
	b *accessBudget
}

func (w *cancelSource) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	w.b.mu.Lock()
	w.b.budget -= len(out)
	spent := w.b.budget <= 0
	w.b.mu.Unlock()
	if spent {
		w.b.cancel()
		if w.b.abort {
			return ctx.Err()
		}
	}
	return w.Wrapper.Probe(ctx, ids, out)
}

// cancelAfter rebinds every relation of the fixture behind wrappers that
// cancel the returned context once budget accesses have been spent; abort
// additionally fails the probes from then on.
func cancelAfter(t *testing.T, f *fixture, budget int, abort bool) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	shared := &accessBudget{budget: budget, cancel: cancel, abort: abort}
	for _, name := range f.reg.Names() {
		f.reg.Bind(&cancelSource{Wrapper: f.reg.Source(name), b: shared})
	}
	t.Cleanup(cancel)
	return ctx
}

// TestCancelledProbeTruncates: a probe that fails because the run's context
// was cancelled under it is a cancellation, not a source failure — every
// executor returns the answers derived so far as a truncated sound subset
// instead of an error.
func TestCancelledProbeTruncates(t *testing.T) {
	runs := map[string]func(context.Context, *fixture) (*Result, error){
		"naive": func(ctx context.Context, f *fixture) (*Result, error) {
			return Naive(ctx, f.sch, f.reg, f.q, f.ty, Options{}, nil)
		},
		"fastfail": func(ctx context.Context, f *fixture) (*Result, error) {
			return FastFailing(ctx, f.plan, f.reg, Options{}, nil)
		},
		"pipelined": func(ctx context.Context, f *fixture) (*Result, error) {
			return Pipelined(ctx, f.plan, f.reg, Options{}, nil)
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			f := wideFixture(t, 60)
			full, err := run(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			r, err := run(cancelAfter(t, f, 10, true), f)
			if err != nil {
				t.Fatalf("cancelled probe surfaced as an error: %v", err)
			}
			if !r.Truncated {
				t.Error("run with a cancelled probe must be flagged truncated")
			}
			fullSet := full.AnswerSet()
			for _, tu := range r.Answers.Tuples() {
				if !fullSet[tu.Key()] {
					t.Errorf("truncated run produced a wrong answer %v", tu)
				}
			}
		})
	}
}

// TestNaiveCancellation: a cancelled context stops the naive extraction;
// the result is flagged truncated, is a sound subset, and saved accesses.
func TestNaiveCancellation(t *testing.T) {
	f := wideFixture(t, 60)
	full, err := Naive(context.Background(), f.sch, f.reg, f.q, f.ty, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cancelAfter(t, f, 10, false)
	r, err := Naive(ctx, f.sch, f.reg, f.q, f.ty, Options{MaxBatch: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated {
		t.Error("cancelled naive run must be flagged truncated")
	}
	if r.TotalAccesses() >= full.TotalAccesses() {
		t.Errorf("cancellation saved nothing: %d vs %d accesses", r.TotalAccesses(), full.TotalAccesses())
	}
	fullSet := full.AnswerSet()
	for _, tu := range r.Answers.Tuples() {
		if !fullSet[tu.Key()] {
			t.Errorf("truncated run produced a wrong answer %v", tu)
		}
	}
}

// TestFastFailingCancellation: same contract for the fast-failing strategy.
func TestFastFailingCancellation(t *testing.T) {
	f := wideFixture(t, 60)
	full, err := FastFailing(context.Background(), f.plan, f.reg, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cancelAfter(t, f, 10, false)
	r, err := FastFailing(ctx, f.plan, f.reg, Options{MaxBatch: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated {
		t.Error("cancelled fast-failing run must be flagged truncated")
	}
	if r.TotalAccesses() >= full.TotalAccesses() {
		t.Errorf("cancellation saved nothing: %d vs %d accesses", r.TotalAccesses(), full.TotalAccesses())
	}
	fullSet := full.AnswerSet()
	for _, tu := range r.Answers.Tuples() {
		if !fullSet[tu.Key()] {
			t.Errorf("truncated run produced a wrong answer %v", tu)
		}
	}
}

// TestCancelledBeforeStart: an already-cancelled context spends no
// accesses in any sequential strategy.
func TestCancelledBeforeStart(t *testing.T) {
	f := wideFixture(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Naive(ctx, f.sch, f.reg, f.q, f.ty, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated || r.TotalAccesses() != 0 {
		t.Errorf("naive: truncated=%v accesses=%d, want truncated with 0 accesses", r.Truncated, r.TotalAccesses())
	}
	rf, err := FastFailing(ctx, f.plan, f.reg, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rf.Truncated || rf.TotalAccesses() != 0 {
		t.Errorf("fastfail: truncated=%v accesses=%d, want truncated with 0 accesses", rf.Truncated, rf.TotalAccesses())
	}
}
