package toorjah

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"toorjah/internal/gen"
)

// TestScratchRecyclingConcurrent is the safety property of the executors'
// shared scratch pool: working memory recycled from one execution into the
// next — across goroutines, queries and executors — never shows in a
// result. One prepared query runs repeatedly on four goroutines, each
// interleaving it with a different query (and a different executor) on the
// same System, so scratches sized and filled by one plan keep being handed
// to another. Every run must report the naive oracle's answers and exactly
// the access count of an undisturbed run, and the answers of a Result
// obtained before the storm must be bit-for-bit what they were once it is
// over: nothing reachable from a Result lives in recycled memory.
func TestScratchRecyclingConcurrent(t *testing.T) {
	ctx := context.Background()
	cfg := gen.SmallPublication()
	sch, db := gen.Publication(5, cfg)
	sys := NewSystem(sch)
	must(t, sys.BindDatabase(db))

	type prepared struct {
		q      *Query
		oracle []string
		// accesses of an undisturbed run, per executor
		accesses map[Executor]int
	}
	prepare := func(text string) *prepared {
		q, err := sys.Prepare(text)
		must(t, err)
		p := &prepared{q: q, accesses: make(map[Executor]int)}
		for _, e := range []Executor{ExecutorNaive, ExecutorFastFail, ExecutorPipelined} {
			res, err := q.Execute(ctx, WithExecutor(e))
			must(t, err)
			if e == ExecutorNaive {
				p.oracle = res.SortedAnswers()
			} else if got := res.SortedAnswers(); !reflect.DeepEqual(got, p.oracle) {
				t.Fatalf("%s: executor %d answers %v, naive %v", text, e, got, p.oracle)
			}
			p.accesses[e] = res.TotalAccesses()
		}
		return p
	}
	main := prepare(gen.PublicationQueries[0])
	others := []*prepared{prepare(gen.PublicationQueries[1]), prepare(gen.PublicationQueries[2])}
	if len(main.oracle) == 0 {
		t.Fatal("the main query has no answers on this instance; the aliasing check would be vacuous")
	}

	// The Result whose answers must survive everything that follows.
	early, err := main.q.Execute(ctx)
	must(t, err)
	var earlyIDs [][]uint32
	for _, tup := range early.Answers.Tuples() {
		ids := make([]uint32, len(tup))
		for i, id := range tup {
			ids[i] = uint32(id)
		}
		earlyIDs = append(earlyIDs, ids)
	}

	check := func(p *prepared, e Executor) error {
		res, err := p.q.Execute(ctx, WithExecutor(e))
		if err != nil {
			return err
		}
		if got := res.SortedAnswers(); !reflect.DeepEqual(got, p.oracle) {
			return fmt.Errorf("executor %d: answers %v, oracle %v", e, got, p.oracle)
		}
		if got := res.TotalAccesses(); got != p.accesses[e] {
			return fmt.Errorf("executor %d: %d accesses, an undisturbed run makes %d", e, got, p.accesses[e])
		}
		return nil
	}
	const goroutines, rounds = 4, 6
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds && errs[g] == nil; r++ {
				if errs[g] = check(main, ExecutorFastFail); errs[g] != nil {
					return
				}
				// The other query and its executor rotate, so every pairing
				// of (previous user of a scratch, next user) occurs.
				errs[g] = check(others[(g+r)%len(others)], Executor((g+r)%3))
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}

	tuples := early.Answers.Tuples()
	if len(tuples) != len(earlyIDs) {
		t.Fatalf("the early result now has %d answers, had %d", len(tuples), len(earlyIDs))
	}
	for i, tup := range tuples {
		for j, id := range tup {
			if uint32(id) != earlyIDs[i][j] {
				t.Fatalf("answer %d of the early result changed under later executions: %v, was %v", i, tup, earlyIDs[i])
			}
		}
	}
	if got := early.SortedAnswers(); !reflect.DeepEqual(got, main.oracle) {
		t.Errorf("the early result reads %v after later executions, oracle %v", got, main.oracle)
	}
}
