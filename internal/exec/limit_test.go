package exec

import (
	"context"
	"fmt"
	"testing"

	"toorjah/internal/datalog"
	"toorjah/internal/storage"
)

// TestPipelinedLimit: the answer limit stops extraction early; the returned
// answers are a sound subset and the run is flagged truncated.
func TestPipelinedLimit(t *testing.T) {
	var free, mid []storage.Row
	for i := 0; i < 200; i++ {
		free = append(free, storage.Row{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)})
		mid = append(mid, storage.Row{fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)})
	}
	f := setup(t, `
free^oo(A, B)
mid^io(B, C)
`, "q(X, Z) :- free(X, Y), mid(Y, Z)", map[string][]storage.Row{
		"free": free,
		"mid":  mid,
	})
	onBothPaths(t, f, func(t *testing.T, f *fixture) {
		full, err := Pipelined(context.Background(), f.plan, f.reg, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if full.Answers.Len() != 200 || full.Truncated {
			t.Fatalf("full run: %d answers, truncated=%v", full.Answers.Len(), full.Truncated)
		}

		var streamed []datalog.Tuple
		lim, err := Pipelined(context.Background(), f.plan, f.reg, Options{Limit: 10}, each(func(tu datalog.Tuple) {
			streamed = append(streamed, tu)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !lim.Truncated {
			t.Error("limited run must be flagged truncated")
		}
		if lim.Answers.Len() != 10 || len(streamed) != 10 {
			t.Errorf("answers = %d, streamed = %d, want exactly 10", lim.Answers.Len(), len(streamed))
		}
		if lim.TotalAccesses() >= full.TotalAccesses() {
			t.Errorf("limit did not save accesses: %d vs %d", lim.TotalAccesses(), full.TotalAccesses())
		}
		// Soundness: every limited answer is a real answer.
		fullSet := full.AnswerSet()
		for _, tu := range lim.Answers.Tuples() {
			if !fullSet[tu.Key()] {
				t.Errorf("limited run produced a wrong answer %v", tu)
			}
		}
	})
}

// TestPipelinedCancellation: a cancelled context stops the extraction
// early; the answers are a sound subset and accesses are saved.
func TestPipelinedCancellation(t *testing.T) {
	var free, mid []storage.Row
	for i := 0; i < 200; i++ {
		free = append(free, storage.Row{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)})
		mid = append(mid, storage.Row{fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)})
	}
	f := setup(t, `
free^oo(A, B)
mid^io(B, C)
`, "q(X, Z) :- free(X, Y), mid(Y, Z)", map[string][]storage.Row{
		"free": free,
		"mid":  mid,
	})
	onBothPaths(t, f, func(t *testing.T, f *fixture) {
		full, err := Pipelined(context.Background(), f.plan, f.reg, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Cancel after the first few answers, as a disconnected client would.
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		res, err := Pipelined(ctx, f.plan, f.reg, Options{}, each(func(datalog.Tuple) {
			if n++; n == 5 {
				cancel()
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Error("cancelled run must be flagged truncated")
		}
		if res.TotalAccesses() >= full.TotalAccesses() {
			t.Errorf("cancellation did not save accesses: %d vs %d",
				res.TotalAccesses(), full.TotalAccesses())
		}
		// Whatever the run derived before it stopped — the round trips in flight
		// at the cancellation included — reached the consumer.
		if n != res.Answers.Len() {
			t.Errorf("cancelled run derived %d answers and delivered %d", res.Answers.Len(), n)
		}
		fullSet := full.AnswerSet()
		for _, tu := range res.Answers.Tuples() {
			if !fullSet[tu.Key()] {
				t.Errorf("cancelled run produced a wrong answer %v", tu)
			}
		}

		// An already-done context on a complete-in-zero-work query is still a
		// valid, non-erroring call.
		pre, cancel2 := context.WithCancel(context.Background())
		cancel2()
		if _, err := Pipelined(pre, f.plan, f.reg, Options{}, nil); err != nil {
			t.Fatalf("pre-cancelled run: %v", err)
		}
	})
}

// TestPipelinedLimitWithNegation: for negated queries the limit cannot
// save accesses (no answer is sound before completion) but still caps the
// answers returned, with Truncated set.
func TestPipelinedLimitWithNegation(t *testing.T) {
	var free []storage.Row
	for i := 0; i < 20; i++ {
		free = append(free, storage.Row{fmt.Sprintf("a%02d", i)})
	}
	f := setup(t, `
free^o(A)
bad^i(A)
`, "q(X) :- free(X), not bad(X)", map[string][]storage.Row{
		"free": free,
		"bad":  {{"a00"}},
	})
	onBothPaths(t, f, func(t *testing.T, f *fixture) {
		full, err := Pipelined(context.Background(), f.plan, f.reg, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if full.Answers.Len() != 19 {
			t.Fatalf("full run: %d answers, want 19", full.Answers.Len())
		}
		lim, err := Pipelined(context.Background(), f.plan, f.reg, Options{Limit: 5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lim.Answers.Len() != 5 || !lim.Truncated {
			t.Errorf("limited negated run: %d answers truncated=%v, want 5/true",
				lim.Answers.Len(), lim.Truncated)
		}
		fullSet := full.AnswerSet()
		for _, tu := range lim.Answers.Tuples() {
			if !fullSet[tu.Key()] {
				t.Errorf("limited run produced a wrong answer %v", tu)
			}
		}
	})
}

// TestPipelinedLimitLargerThanAnswers behaves like an unlimited run.
func TestPipelinedLimitLargerThanAnswers(t *testing.T) {
	f := setup(t, `
free^oo(A, B)
`, "q(X, Y) :- free(X, Y), free(X, Y2)", map[string][]storage.Row{
		"free": {{"a", "b"}, {"c", "d"}},
	})
	onBothPaths(t, f, func(t *testing.T, f *fixture) {
		r, err := Pipelined(context.Background(), f.plan, f.reg, Options{Limit: 100}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Truncated || r.Answers.Len() != 2 {
			t.Errorf("truncated=%v answers=%d", r.Truncated, r.Answers.Len())
		}
	})
}
