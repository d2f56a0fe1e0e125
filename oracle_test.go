package toorjah

import (
	"fmt"
	"testing"

	"toorjah/internal/oracle"
)

// TestOracleFacade is the façade's driver of internal/oracle: every generated
// case, CQ or UCQ, under each executor — audited, streamed, limited, over a
// cold and then a warm access cache and, once the case's mutation script has
// moved the tables under it, over that cache again — and prepared
// after a sibling query of its shape with other constants, on that sibling's
// plan.
func TestOracleFacade(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(900); seed < 900+seeds; seed++ {
		checkFacade(t, oracle.Generate(seed))
	}
}

// TestStringSymbolEngineEquivalence holds the interned symbol engine behind
// the façade to the string-space reference across every executor × batch
// size × cross-query cache, and again once the case's mutation script has
// moved the tables under the one cache both epochs share: only epoch-keying
// keeps its stale entries out of the answers. Uncached, the naive run makes
// the reference's accesses and no executor's count depends on the batch size.
func TestStringSymbolEngineEquivalence(t *testing.T) {
	seeds := int64(14)
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(500); seed < 500+seeds; seed++ {
		c := oracle.Generate(seed)
		db := c.Copy()
		plain, counters := auditedSystem(t, c.Schema, db)
		cached, cachedCounters := auditedSystem(t, c.Schema, db, WithCache(CacheOptions{}))
		epochs := []*oracle.Case{c}
		if c.Script != nil {
			epochs = append(epochs, c.Replay())
		}
		for epoch, ec := range epochs {
			if epoch == 1 {
				oracle.Apply(db, c.Script)
			}
			for _, ex := range shapeExecutors {
				for _, mb := range []int{-1, 1, 16} {
					with := []ExecOption{WithExecutor(ex.e), WithExecOptions(Options{MaxBatch: mb})}
					surface := fmt.Sprintf("epoch %d, %s, batch %d", epoch, ex.name, mb)
					o, _ := observe(t, plain, counters, ec.Disjuncts, with...)
					o.Naive, o.Batching = ex.e == ExecutorNaive, fmt.Sprintf("epoch %d, %s", epoch, ex.name)
					oracle.Check(t, ec, surface, o)
					o, _ = observe(t, cached, cachedCounters, ec.Disjuncts, with...)
					o.Warm = mb != -1
					oracle.Check(t, ec, surface+", cached", o)
				}
			}
		}
	}
}

// FuzzEndToEnd drives the façade's oracle checks over any seed. Seed 868 is
// a relation that only a negated atom mentions and whose values a positive
// atom needs: the d-graph once gave it no source to provide them from.
func FuzzEndToEnd(f *testing.F) {
	for _, seed := range []int64{0, 868, 900, 929, 933} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkFacade(t, oracle.Generate(seed)) })
}

func checkFacade(t *testing.T, c *oracle.Case) {
	t.Helper()
	sibling, after := c.Sibling(), c
	if c.Script != nil {
		after = c.Replay()
	}
	for _, ex := range shapeExecutors {
		with := WithExecutor(ex.e)
		streamed := []string{}
		sys, counters := auditedSystem(t, c.Schema, c.DB)
		o, qs := observe(t, sys, counters, c.Disjuncts, with, OnAnswer(func(tp Tuple) { streamed = append(streamed, oracle.Key(tp.Strings())) }))
		if o.Streamed, o.Naive = streamed, ex.e == ExecutorNaive; !o.Naive {
			for _, q := range qs {
				o.Relevant = append(o.Relevant, q.RelevantRelations()...)
			}
		}
		oracle.Check(t, c, ex.name, o)
		if c.Limit > 0 {
			o, _ = observe(t, sys, counters, c.Disjuncts, with, WithLimit(c.Limit))
			o.Limit = c.Limit
			oracle.Check(t, c, ex.name+" limited", o)
		}
		if sibling != nil {
			shared, counters := auditedSystem(t, c.Schema, c.DB)
			_, siblings := observe(t, shared, counters, sibling, with)
			o, qs := observe(t, shared, counters, c.Disjuncts, with)
			for i := range qs {
				if qs[i].pipeline != siblings[i].pipeline {
					t.Errorf("seed %d: disjunct %d was planned anew, not served its sibling's shape", c.Seed, i)
				}
			}
			oracle.Check(t, c, ex.name+" shape-shared", o)
		}
		db := c.Copy()
		cached, counters := auditedSystem(t, c.Schema, db, WithCache(CacheOptions{}))
		for _, run := range []string{"cold", "warm"} {
			o, _ = observe(t, cached, counters, c.Disjuncts, with)
			o.Warm = run == "warm"
			oracle.Check(t, c, ex.name+" "+run, o)
		}
		oracle.Apply(db, c.Script)
		o, _ = observe(t, cached, counters, c.Disjuncts, with)
		oracle.Check(t, after, ex.name+" cached, after the script", o)
	}
}
