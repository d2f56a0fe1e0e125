package cache_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"toorjah/internal/cache"
	"toorjah/internal/core"
	"toorjah/internal/cq"
	"toorjah/internal/exec"
	"toorjah/internal/gen"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
)

// TestPipelinedConcurrentCachedCorrectness runs the pipelined executor with
// high per-relation parallelism, several executions concurrently, all
// sharing one access cache over Counter-wrapped sources. It asserts the
// cross-query cache's concurrency contract:
//
//   - every concurrent cached run computes exactly the uncached answer set;
//   - no distinct access ever hits an underlying table more than once
//     (singleflight collapses concurrent identical probes);
//   - all runs together probe no more than one uncached run needs.
//
// Run with -race; the CI workflow always does.
func TestPipelinedConcurrentCachedCorrectness(t *testing.T) {
	cfg := gen.SmallPublication()
	sch, db := gen.Publication(7, cfg)
	q, err := cq.Parse(gen.PublicationQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Prepare(sch, q)
	if err != nil {
		t.Fatal(err)
	}

	// Uncached reference run: the expected answers and the access budget.
	baseReg, err := source.FromDatabase(sch, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := exec.FastFailing(context.Background(), p.Plan, baseReg, exec.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Cached registry over per-relation counters observing table probes.
	reg := source.NewRegistry()
	counters := make(map[string]*sourcetest.Counter)
	for _, name := range baseReg.Names() {
		ctr := sourcetest.NewCounter(baseReg.Source(name), true)
		counters[name] = ctr
		reg.Bind(ctr)
	}
	c := cache.New(cache.Options{})

	const G = 6
	opts := exec.Options{
		Cache: c,
		// NoMetaCache disables the executor's own within-run access
		// sharing, so concurrent identical probes actually reach the cache
		// and exercise its singleflight.
		NoMetaCache: true,
	}
	results := make([]*exec.Result, G)
	errs := make([]error, G)
	var wg sync.WaitGroup
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = exec.Pipelined(context.Background(), p.Plan, reg, opts, nil)
		}(i)
	}
	wg.Wait()

	want := base.AnswerSet()
	for i := 0; i < G; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got := results[i].AnswerSet(); !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: %d answers, uncached run has %d", i, len(got), len(want))
		}
	}
	total := 0
	for rel, ctr := range counters {
		st := ctr.Stats()
		if st.Accesses != ctr.DistinctAccesses() {
			t.Errorf("%s: %d probes for %d distinct accesses (singleflight broken)",
				rel, st.Accesses, ctr.DistinctAccesses())
		}
		total += st.Accesses
	}
	if total > base.TotalAccesses() {
		t.Errorf("%d concurrent cached runs probed %d times, one uncached run needs %d",
			G, total, base.TotalAccesses())
	}

	// A further run over the warm cache probes nothing.
	warm, err := exec.Pipelined(context.Background(), p.Plan, reg, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalAccesses() != 0 {
		t.Errorf("warm run probed %d times, want 0", warm.TotalAccesses())
	}
	if got := warm.AnswerSet(); !reflect.DeepEqual(got, want) {
		t.Errorf("warm run: %d answers, want %d", len(got), len(want))
	}
}
