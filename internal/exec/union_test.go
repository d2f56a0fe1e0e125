package exec

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"toorjah/internal/datalog"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// fakeDisjunct fabricates a disjunct run that emits the given answers, as
// one burst, and returns them with the given stats and flags.
func fakeDisjunct(answers []datalog.Tuple, stats map[string]source.Stats, truncated, earlyEmpty bool) DisjunctRun {
	return func(ctx context.Context, emit func([]datalog.Tuple)) (*Result, error) {
		rel := datalog.NewRelation("q", 1)
		for _, t := range answers {
			rel.Insert(t)
		}
		emit(answers)
		return &Result{Answers: rel, Stats: stats, Truncated: truncated, EarlyEmpty: earlyEmpty}, nil
	}
}

func sortedUnion(t *testing.T, r *Result) string {
	t.Helper()
	return strings.Join(r.SortedAnswers(), ";")
}

// TestUnionDedupAndStatsMerge: overlapping disjuncts dedup into one answer
// set and the Truncated/EarlyEmpty flags OR. The disjuncts' stats are not
// merged: disjuncts share one opening of the relations (Open), so the
// union's stats are read once off those paths — counts_test.go's UCQ rows
// hold that bill.
func TestUnionDedupAndStatsMerge(t *testing.T) {
	runs := []DisjunctRun{
		fakeDisjunct(
			[]datalog.Tuple{datalog.T("a"), datalog.T("b")},
			map[string]source.Stats{"r": {Accesses: 3, Batches: 2, Tuples: 5}},
			false, true),
		fakeDisjunct(
			[]datalog.Tuple{datalog.T("b"), datalog.T("c")},
			map[string]source.Stats{"r": {Accesses: 1, Batches: 1, Tuples: 1}, "s": {Accesses: 4, Batches: 1, Tuples: 9}},
			true, false),
	}
	var streamed []string
	res, err := Union(context.Background(), "q", 1, runs, Options{}, each(func(t datalog.Tuple) {
		streamed = append(streamed, sym.Default.Str(t[0]))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedUnion(t, res); got != "a;b;c" {
		t.Errorf("union answers = %s, want a;b;c", got)
	}
	if len(streamed) != 3 {
		t.Errorf("onAnswer saw %d answers (%v), want 3 deduplicated", len(streamed), streamed)
	}
	if len(res.Stats) != 0 {
		t.Errorf("the union added up its disjuncts' stats into %+v; they share their access paths, which hold the union's bill", res.Stats)
	}
	if !res.Truncated || !res.EarlyEmpty {
		t.Errorf("flags not OR-ed: truncated=%v earlyEmpty=%v", res.Truncated, res.EarlyEmpty)
	}
	if res.TimeToFirst == 0 || res.TimeToFirst > res.Elapsed {
		t.Errorf("TimeToFirst = %v, Elapsed = %v", res.TimeToFirst, res.Elapsed)
	}
}

// TestUnionError: the first disjunct error cancels the remaining disjuncts
// and is returned.
func TestUnionError(t *testing.T) {
	boom := errors.New("boom")
	// The error waits for the slow disjunct to start, so the cancellation
	// provably has a running disjunct to reach (otherwise the launcher might
	// skip it and nobody would report).
	started := make(chan struct{})
	sawCancel := make(chan bool, 1)
	runs := []DisjunctRun{
		func(ctx context.Context, emit func([]datalog.Tuple)) (*Result, error) {
			<-started
			return nil, boom
		},
		func(ctx context.Context, emit func([]datalog.Tuple)) (*Result, error) {
			close(started)
			select {
			case <-ctx.Done():
				sawCancel <- true
			case <-time.After(5 * time.Second):
				sawCancel <- false
			}
			return &Result{Answers: datalog.NewRelation("q", 1)}, nil
		},
	}
	// MaxConcurrent 2 so both disjuncts are in flight when the first fails.
	_, err := Union(context.Background(), "q", 1, runs, Options{MaxConcurrent: 2}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !<-sawCancel {
		t.Error("second disjunct never saw the cancellation")
	}
}

// TestUnionLimit: the limit caps the distinct answers forwarded and marks
// the result truncated exactly when more were obtainable.
func TestUnionLimit(t *testing.T) {
	many := make([]datalog.Tuple, 10)
	for i := range many {
		many[i] = datalog.T(string(rune('a' + i)))
	}
	var streamed int32
	res, err := Union(context.Background(), "q", 1,
		[]DisjunctRun{fakeDisjunct(many, nil, false, false)},
		Options{Limit: 3},
		each(func(datalog.Tuple) { atomic.AddInt32(&streamed, 1) }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 3 || streamed != 3 {
		t.Errorf("limit run: %d answers, %d streamed, want 3 and 3", res.Answers.Len(), streamed)
	}
	if !res.Truncated {
		t.Error("limit suppressed answers: want Truncated")
	}

	// A limit equal to the obtainable union is not a truncation.
	exact, err := Union(context.Background(), "q", 1,
		[]DisjunctRun{fakeDisjunct(many[:3], nil, false, false)},
		Options{Limit: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Answers.Len() != 3 || exact.Truncated {
		t.Errorf("exact-limit run: %d answers truncated=%v, want 3 and false",
			exact.Answers.Len(), exact.Truncated)
	}
}

// TestUnionCancelled: a pre-cancelled context yields an empty truncated
// result without running any disjunct.
func TestUnionCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	res, err := Union(ctx, "q", 1, []DisjunctRun{
		func(ctx context.Context, emit func([]datalog.Tuple)) (*Result, error) {
			ran = true
			return &Result{Answers: datalog.NewRelation("q", 1)}, nil
		},
	}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("disjunct ran under a cancelled context")
	}
	if !res.Truncated || res.Answers.Len() != 0 {
		t.Errorf("cancelled union: truncated=%v answers=%d", res.Truncated, res.Answers.Len())
	}
}

// TestUnionBoundedParallelism: at most MaxConcurrent disjuncts are ever in
// flight, and with more slots than disjuncts they genuinely overlap.
func TestUnionBoundedParallelism(t *testing.T) {
	var inFlight, peak int32
	slow := func(ctx context.Context, emit func([]datalog.Tuple)) (*Result, error) {
		n := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
		return &Result{Answers: datalog.NewRelation("q", 1)}, nil
	}
	runs := []DisjunctRun{slow, slow, slow, slow}
	if _, err := Union(context.Background(), "q", 1, runs, Options{MaxConcurrent: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt32(&peak); p > 2 {
		t.Errorf("peak concurrency = %d, want <= 2", p)
	}

	atomic.StoreInt32(&peak, 0)
	if _, err := Union(context.Background(), "q", 1, runs, Options{MaxConcurrent: 4}, nil); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt32(&peak); p < 2 {
		t.Errorf("peak concurrency = %d with 4 slots, want >= 2 (no overlap at all)", p)
	}
}

// TestUnionSerializedEmission: concurrent disjuncts delivering bursts — of
// different sizes, overlapping within and across disjuncts — never invoke
// onAnswers concurrently, never repeat an answer and never hand over an
// empty burst (exercised under -race).
func TestUnionSerializedEmission(t *testing.T) {
	const disjuncts = 8
	runs := make([]DisjunctRun, disjuncts)
	for i := range runs {
		i := i
		runs[i] = func(ctx context.Context, emit func([]datalog.Tuple)) (*Result, error) {
			rel := datalog.NewRelation("q", 1)
			var burst []datalog.Tuple
			for j := 0; j < 50; j++ {
				t := datalog.T(string(rune('a' + (i+j)%26)))
				rel.Insert(t)
				if burst = append(burst, t); len(burst) > i {
					emit(burst) // disjunct i delivers i+1 answers at a time
					burst = burst[:0]
				}
			}
			if len(burst) > 0 {
				emit(burst)
			}
			return &Result{Answers: rel}, nil
		}
	}
	var inCallback int32
	seen := make(map[string]bool)
	res, err := Union(context.Background(), "q", 1, runs, Options{MaxConcurrent: disjuncts}, func(burst []datalog.Tuple, _ bool) {
		if atomic.AddInt32(&inCallback, 1) != 1 {
			panic("onAnswers invoked concurrently")
		}
		if len(burst) == 0 {
			panic("empty burst delivered")
		}
		for _, t := range burst {
			if seen[sym.Default.Str(t[0])] { // unsynchronized on purpose: -race sees overlapping calls
				panic("duplicate answer emitted")
			}
			seen[sym.Default.Str(t[0])] = true
		}
		atomic.AddInt32(&inCallback, -1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 26 || len(seen) != 26 {
		t.Errorf("answers = %d, streamed = %d, want 26", res.Answers.Len(), len(seen))
	}
}
