package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"toorjah/internal/datalog"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
	"toorjah/internal/storage"
)

var errSourceDown = errors.New("source unavailable")

// flakyFixture rebinds one relation of a fixture behind a failure-injecting
// wrapper.
func flakyFixture(t *testing.T, f *fixture, rel string, failAfter int) {
	t.Helper()
	w := f.reg.Source(rel)
	if w == nil {
		t.Fatalf("no source for %s", rel)
	}
	f.reg.Bind(sourcetest.NewFlaky(w, failAfter, errSourceDown))
}

func chainFixture(t *testing.T) *fixture {
	var free, mid []storage.Row
	for i := 0; i < 30; i++ {
		free = append(free, storage.Row{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)})
		mid = append(mid, storage.Row{fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)})
	}
	return setup(t, `
free^oo(A, B)
mid^io(B, C)
`, "q(X, Z) :- free(X, Y), mid(Y, Z)", map[string][]storage.Row{
		"free": free,
		"mid":  mid,
	})
}

func TestNaivePropagatesSourceError(t *testing.T) {
	f := chainFixture(t)
	flakyFixture(t, f, "mid", 5)
	_, err := Naive(context.Background(), f.sch, f.reg, f.q, f.ty, Options{}, nil)
	if !errors.Is(err, errSourceDown) {
		t.Errorf("err = %v, want %v", err, errSourceDown)
	}
}

func TestFastFailingPropagatesSourceError(t *testing.T) {
	f := chainFixture(t)
	flakyFixture(t, f, "mid", 5)
	_, err := FastFailing(context.Background(), f.plan, f.reg, Options{}, nil)
	if !errors.Is(err, errSourceDown) {
		t.Errorf("err = %v, want %v", err, errSourceDown)
	}
}

// TestPipelinedPropagatesSourceErrorNoDeadlock: the parallel engine must
// return the error promptly, shut down its workers and not leak goroutines
// or deadlock — run repeatedly to shake races.
func TestPipelinedPropagatesSourceErrorNoDeadlock(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		onBothPaths(t, chainFixture(t), func(t *testing.T, f *fixture) {
			flakyFixture(t, f, "mid", trial)
			_, err := Pipelined(context.Background(), f.plan, f.reg, Options{MaxBatch: 2}, nil)
			if !errors.Is(err, errSourceDown) {
				t.Fatalf("trial %d: err = %v, want %v", trial, err, errSourceDown)
			}
		})
	}
}

// TestSourceErrorStillDeliversDerivedAnswers: a run that fails returns no
// Result, so what it derived before the error must have left through the
// callback — one round trip at a time, the five that succeed deliver their
// five answers before the sixth fails.
func TestSourceErrorStillDeliversDerivedAnswers(t *testing.T) {
	onBothPaths(t, chainFixture(t), func(t *testing.T, f *fixture) {
		flakyFixture(t, f, "mid", 5)
		var delivered []datalog.Tuple
		_, err := Pipelined(context.Background(), f.plan, f.reg, Options{MaxBatch: -1, parallelism: 1},
			func(burst []datalog.Tuple, _ bool) { delivered = append(delivered, burst...) })
		if !errors.Is(err, errSourceDown) {
			t.Fatalf("err = %v, want %v", err, errSourceDown)
		}
		if len(delivered) != 5 {
			t.Errorf("delivered %d answers before the error, want 5", len(delivered))
		}
	})
}

// TestErrorBeforeAnyAccess: a source that fails immediately, and a relation
// with no source at all — which every strategy reports before its first
// probe, whichever group the relation belongs to, so it never costs an
// access.
func TestErrorBeforeAnyAccess(t *testing.T) {
	strategies := map[string]func(f *fixture) (*Result, error){
		"fast-fail": func(f *fixture) (*Result, error) {
			return FastFailing(context.Background(), f.plan, f.reg, Options{}, nil)
		},
		"pipelined": func(f *fixture) (*Result, error) {
			return Pipelined(context.Background(), f.plan, f.reg, Options{}, nil)
		},
		"pipelined, blocking": func(f *fixture) (*Result, error) {
			return Pipelined(context.Background(), f.plan, f.blocking().reg, Options{}, nil)
		},
	}
	for name, run := range strategies {
		f := chainFixture(t)
		flakyFixture(t, f, "free", 0)
		if _, err := run(f); !errors.Is(err, errSourceDown) {
			t.Errorf("%s, failing source: err = %v", name, err)
		}

		// mid, probed only after free has delivered, is left unbound.
		f = chainFixture(t)
		counted, counters := sourcetest.Counted(f.reg, false)
		f.reg = source.NewRegistry()
		f.reg.Bind(counted.Source("free"))
		_, err := run(f)
		if err == nil || !strings.Contains(err.Error(), "no source bound for relation mid") {
			t.Errorf("%s, unbound relation: err = %v", name, err)
		}
		if n := counters["free"].Stats().Accesses; n != 0 {
			t.Errorf("%s made %d accesses before reporting the unbound relation", name, n)
		}
	}
}

// TestNoGoroutineLeft: a run's round-trip goroutines are gone when it
// returns — after completing, stopping at the limit, being cancelled with
// round trips in flight, and failing on a source error — and so are a
// union's after its first disjunct fails.
func TestNoGoroutineLeft(t *testing.T) {
	ctx := context.Background()
	opts := Options{MaxBatch: 2}
	cases := map[string]func(t *testing.T){
		"completes": func(t *testing.T) {
			f := chainFixture(t)
			if r, err := Pipelined(ctx, f.plan, f.reg, opts, nil); err != nil || r.Truncated {
				t.Fatalf("err = %v, result = %v", err, r)
			}
		},
		"stops at the limit": func(t *testing.T) {
			f := chainFixture(t)
			lim := opts
			lim.Limit = 2
			if r, err := Pipelined(ctx, f.plan, f.reg, lim, nil); err != nil || !r.Truncated {
				t.Fatalf("err = %v, result = %v", err, r)
			}
		},
		"cancelled mid-flight": func(t *testing.T) {
			f := chainFixture(t)
			if r, err := Pipelined(cancelAfter(t, f, 5, true), f.plan, f.reg, opts, nil); err != nil || !r.Truncated {
				t.Fatalf("err = %v, result = %v", err, r)
			}
		},
		"source error": func(t *testing.T) {
			f := chainFixture(t)
			flakyFixture(t, f, "mid", 5)
			if _, err := Pipelined(ctx, f.plan, f.reg, opts, nil); !errors.Is(err, errSourceDown) {
				t.Fatalf("err = %v, want %v", err, errSourceDown)
			}
		},
		"union whose first disjunct fails": func(t *testing.T) {
			f := chainFixture(t)
			runs := []DisjunctRun{
				func(context.Context, func([]datalog.Tuple)) (*Result, error) { return nil, errSourceDown },
				func(ctx context.Context, emit func([]datalog.Tuple)) (*Result, error) {
					return Pipelined(ctx, f.plan, f.reg, opts, func(burst []datalog.Tuple, _ bool) { emit(burst) })
				},
			}
			if _, err := Union(ctx, "q", 2, runs, Options{}, nil); !errors.Is(err, errSourceDown) {
				t.Fatalf("err = %v, want %v", err, errSourceDown)
			}
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			run(t)
			// A goroutine that has reported back may still be exiting.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before the run, %d after", before, after)
			}
		})
	}
}

// TestSufficientBudgetSucceeds: with enough budget the flaky wrapper is
// invisible and all strategies agree.
func TestSufficientBudgetSucceeds(t *testing.T) {
	f := chainFixture(t)
	flakyFixture(t, f, "mid", 1000)
	flakyFixture(t, f, "free", 1000)
	ff, err := FastFailing(context.Background(), f.plan, f.reg, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*fixture{f, f.blocking()} {
		pp, err := Pipelined(context.Background(), f.plan, f.reg, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(ff.SortedAnswers(), ";") != strings.Join(pp.SortedAnswers(), ";") {
			t.Error("strategies disagree under a permissive flaky wrapper")
		}
	}
	if ff.Answers.Len() != 30 {
		t.Errorf("answers = %d, want 30", ff.Answers.Len())
	}
}
