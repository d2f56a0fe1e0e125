package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"toorjah/internal/cache"
	"toorjah/internal/core"
	"toorjah/internal/cq"
	"toorjah/internal/datalog"
	"toorjah/internal/oracle"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
	"toorjah/internal/storage"
)

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, strings.ReplaceAll(k, "\x00", "|"))
	}
	sort.Strings(out)
	return out
}

// assertDeltaEquivalence holds f to the oracle over its whole matrix
// (checkExecutors): the pipelined engine, whatever its parallelism and batch
// bound, over the tables or behind sources that can block, and fast-fail
// without the early test make the same set of accesses — the domains
// maintained from deltas reach exactly the fixpoint the rules define —
// never one the naive algorithm does not make, and all answer alike. It
// returns the answers and that access set.
func assertDeltaEquivalence(t *testing.T, f *fixture) (answers string, accesses map[string]bool) {
	t.Helper()
	o := checkExecutors(t, f.oracleCase(t), f.reg, map[string]*cache.Cache{})
	var rows []string
	for _, a := range o.Answers {
		rows = append(rows, strings.ReplaceAll(a, "\x1f", ","))
	}
	sort.Strings(rows)
	return strings.Join(rows, ";"), o.Accesses
}

// TestDeltaPaths drives each way a value can reach an input domain through
// delta maintenance, on instances small enough to state the expected access
// set outright.
func TestDeltaPaths(t *testing.T) {
	// jointRules counts, over the whole plan, the fed domain rules with at least
	// min body atoms.
	jointRules := func(f *fixture, min int) int {
		n := 0
		for _, c := range f.plan.Caches {
			for _, fd := range c.Feeds {
				if len(fd.Rule.Body) >= min {
					n++
				}
			}
		}
		return n
	}
	countRel := func(set map[string]bool, rel string) int {
		n := 0
		for k := range set {
			if strings.HasPrefix(k, rel+"\x00") {
				n++
			}
		}
		return n
	}

	t.Run("joint strong providers", func(t *testing.T) {
		// X reaches r's input only through the join of a and b: values
		// either provider has alone (a1, b3) must never be probed, and a
		// value completes the join whichever provider delivers it last.
		f := setup(t, `
a^o(D)
b^o(D)
r^io(D, E)
`, "q(Z) :- a(X), b(X), r(X, Z)", map[string][]storage.Row{
			"a": {{"a1"}, {"x1"}, {"x2"}},
			"b": {{"x2"}, {"b3"}, {"x1"}},
			"r": {{"x1", "z1"}, {"x2", "z2"}, {"a1", "no"}, {"b3", "no"}},
		})
		if jointRules(f, 2) == 0 {
			t.Fatalf("plan has no joint domain rule:\n%s", f.plan)
		}
		ans, set := assertDeltaEquivalence(t, f)
		if ans != "z1;z2" {
			t.Errorf("answers = [%s], want [z1;z2]", ans)
		}
		if got := countRel(set, "r"); got != 2 {
			t.Errorf("r probed %d times, want 2 (x1, x2): %v", got, sortedKeys(set))
		}
	})

	t.Run("self-joined atom", func(t *testing.T) {
		// e occurs three times, once as e(X, X): the occurrences share
		// extractions through the meta-cache, and a delta of one occurrence
		// feeds the domain of another.
		f := setup(t, `
s^o(N)
e^io(N, N)
`, "q(Z) :- s(X), e(X, X), e(X, Y), e(Y, Z)", map[string][]storage.Row{
			"s": {{"n1"}, {"n2"}},
			"e": {{"n1", "n1"}, {"n1", "n3"}, {"n3", "n4"}, {"n2", "n5"}, {"n4", "n6"}},
		})
		ans, _ := assertDeltaEquivalence(t, f)
		if ans != "n1;n3;n4" {
			t.Errorf("answers = [%s], want [n1;n3;n4]", ans)
		}
	})

	t.Run("constant-fed input", func(t *testing.T) {
		// The only value r's input ever gets is the query constant, seeded
		// before any extraction.
		f := setup(t, `
r^io(D, E)
`, "q(Z) :- r(k, Z)", map[string][]storage.Row{
			"r": {{"k", "z1"}, {"k", "z2"}, {"j", "z3"}},
		})
		ans, set := assertDeltaEquivalence(t, f)
		if ans != "z1;z2" || len(set) != 1 {
			t.Errorf("answers = [%s], accesses = %v; want [z1;z2] by the single access r(k)", ans, sortedKeys(set))
		}
	})

	t.Run("one domain fills passes after the other", func(t *testing.T) {
		// r's first input has all its values after the first extraction of
		// a; its second grows one value per extraction of the chain next.
		// Every pair must be probed exactly once however the two interleave.
		f := setup(t, `
a^o(A)
seed^o(B)
next^io(B, B)
r^iio(A, B, C)
`, "q(X, Y, Z) :- a(X), r(X, Y, Z)", map[string][]storage.Row{
			"a":    {{"a1"}, {"a2"}, {"a3"}},
			"seed": {{"b0"}},
			"next": {{"b0", "b1"}, {"b1", "b2"}, {"b2", "b3"}, {"b3", "b4"}, {"b9", "b10"}},
			"r":    {{"a1", "b4", "c1"}, {"a3", "b0", "c2"}, {"a2", "b9", "no"}},
		})
		ans, set := assertDeltaEquivalence(t, f)
		if ans != "a1,b4,c1;a3,b0,c2" {
			t.Errorf("answers = [%s], want [a1,b4,c1;a3,b0,c2]", ans)
		}
		if got := countRel(set, "r"); got != 15 {
			t.Errorf("r probed %d times, want 15 (3 a-values × b0…b4): %v", got, sortedKeys(set))
		}
	})

	t.Run("a domain that stays empty", func(t *testing.T) {
		// r's second input never gets a value, so no binding of r is ever
		// complete: the values of the first stay unconsumed and r unprobed.
		f := setup(t, `
a^o(A)
seed^o(B)
r^iio(A, B, C)
`, "q(X, Z) :- a(X), r(X, Y, Z)", map[string][]storage.Row{
			"a":    {{"a1"}, {"a2"}},
			"seed": {},
			"r":    {{"a1", "b1", "c1"}},
		})
		ans, set := assertDeltaEquivalence(t, f)
		if ans != "" || countRel(set, "r") != 0 {
			t.Errorf("answers = [%s], accesses = %v; want none and r unprobed", ans, sortedKeys(set))
		}
	})
}

// TestDeltaEquivalenceRandomized is the executors' driver of internal/oracle.
// Every generated case runs under naive, fast-fail, fast-fail without early
// failure and pipelined, at batch bounds -1, 1 and 16, uncached and over a
// cold and then a warm access cache; pipelined also behind sources that can
// block, at parallelism 4, 1 and 8 (a dimension an executor ignores is not
// varied for it). Fast-fail and pipelined (on both paths) run once more
// without the meta-cache — so one relation's queue holds the accesses of
// several cache nodes — unaudited. The least fixpoint of each plan program
// and the unpruned plans answer the reference too. A case with a mutation
// script runs all of it again after the script, over the same tables and
// caches.
func TestDeltaEquivalenceRandomized(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(900); seed < 900+seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := oracle.Generate(seed)
			reg, err := source.FromDatabase(c.Schema, c.DB, 0)
			if err != nil {
				t.Fatal(err)
			}
			caches := map[string]*cache.Cache{}
			checkExecutors(t, c, reg, caches)
			if c.Script != nil {
				after := c.Replay()
				oracle.Apply(c.DB, c.Script)
				checkExecutors(t, after, reg, caches)
			}
		})
	}
}

// checkExecutors runs c's matrix over reg — caches holds each
// configuration's access cache, kept across the script — and returns the
// outcome of the first run of the fixpoint group.
func checkExecutors(t *testing.T, c *oracle.Case, reg *source.Registry, caches map[string]*cache.Cache) (fixpoint oracle.Outcome) {
	var pipes, unpruned []*core.Pipeline
	var relevant []string
	for _, q := range c.Disjuncts {
		p, err := core.Prepare(c.Schema, q)
		u, err2 := core.PrepareOpts(c.Schema, q, core.Options{SkipPruning: true})
		if err = errors.Join(err, err2); err != nil {
			t.Fatal(err)
		}
		pipes, unpruned, relevant = append(pipes, p), append(unpruned, u), append(relevant, p.Opt.RelevantRelations()...)
	}
	for _, mb := range []int{-1, 1, 16} {
		for _, cf := range []struct {
			ex       string
			opts     Options
			blocking bool
		}{
			{"naive", Options{MaxBatch: mb}, false},
			{"fast-fail", Options{MaxBatch: mb}, false},
			{"fast-fail", Options{MaxBatch: mb, NoEarlyFailure: true}, false},
			{"pipelined", Options{MaxBatch: mb}, false},
			{"pipelined", Options{MaxBatch: mb}, true},
			{"pipelined", Options{MaxBatch: mb, parallelism: 1}, true},
			{"pipelined", Options{MaxBatch: mb, parallelism: 8}, true},
			{"fast-fail", Options{MaxBatch: mb, NoMetaCache: true}, false},
			{"pipelined", Options{MaxBatch: mb, NoMetaCache: true}, false},
			{"pipelined", Options{MaxBatch: mb, NoMetaCache: true}, true},
		} {
			label := fmt.Sprintf("%s mb=%d par=%d no-early=%v no-meta=%v blocking=%v", cf.ex, mb, cf.opts.parallelism, cf.opts.NoEarlyFailure, cf.opts.NoMetaCache, cf.blocking)
			for _, run := range []string{"uncached", "cold", "warm"} {
				opts := cf.opts
				if run != "uncached" {
					if caches[label] == nil {
						caches[label] = cache.New(cache.Options{})
					}
					opts.Cache = caches[label]
				}
				o := auditedRun(t, c, pipes, cf.ex, reg, opts, cf.blocking)
				o.Naive, o.Warm = cf.ex == "naive" && run == "uncached", run == "warm"
				if cf.ex != "naive" {
					o.Relevant = relevant
				}
				if cf.opts.NoMetaCache {
					// Each occurrence of a relation probes its own bindings, so an
					// access may repeat: the run is held to its answers alone.
					o.Accesses = nil
				} else if run == "uncached" {
					o.Batching = fmt.Sprint(cf.ex, cf.opts.NoEarlyFailure)
					if cf.ex == "pipelined" || cf.opts.NoEarlyFailure {
						o.Fixpoint = "uncached"
					}
				}
				if o.Fixpoint != "" && fixpoint.Accesses == nil {
					fixpoint = o
				}
				oracle.Check(t, c, label+" "+run, o)
			}
		}
	}
	if c.Limit > 0 {
		for _, ex := range []string{"fast-fail", "pipelined"} {
			oracle.Check(t, c, ex+" limited", auditedRun(t, c, pipes, ex, reg, Options{Limit: c.Limit}, false))
		}
	}
	oracle.Check(t, c, "unpruned", auditedRun(t, c, unpruned, "fast-fail", reg, Options{}, false))

	// The least fixpoint of each plan program over the full relations.
	edb, lfp := datalog.DB{}, oracle.Outcome{}
	for _, rel := range c.Schema.Relations() {
		r := edb.Get(rel.Name, rel.Arity())
		for _, row := range c.DB.Table(rel.Name).Snapshot().Rows() {
			r.Insert(datalog.T(row...))
		}
	}
	for _, p := range pipes {
		if p.Plan == nil {
			continue
		}
		idb, err := datalog.Eval(p.Plan.Program, edb)
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range idb[p.Query.Name].Tuples() {
			lfp.Answers = append(lfp.Answers, oracle.Key(tup.Strings()))
		}
	}
	oracle.Check(t, c, "least fixpoint", lfp)
	return fixpoint
}

// auditedRun runs c — its disjuncts as a union when there are several — with
// one executor over counters on reg, behind sources that can block when
// blocking is set, and reports what the run showed.
func auditedRun(t *testing.T, c *oracle.Case, pipes []*core.Pipeline, ex string, reg *source.Registry, opts Options, blocking bool) oracle.Outcome {
	t.Helper()
	counted, counters := sourcetest.Counted(reg, true)
	if blocking {
		counted = (&fixture{reg: counted}).blocking().reg
	}
	o := oracle.Outcome{Limit: opts.Limit, Accesses: map[string]bool{}, Streamed: []string{}}
	runs := make([]DisjunctRun, len(pipes))
	for i, p := range pipes {
		runs[i] = func(ctx context.Context, emit func([]datalog.Tuple)) (*Result, error) {
			onBursts := func(burst []datalog.Tuple, _ bool) { emit(burst) }
			switch {
			case ex == "naive":
				ty, err := cq.Validate(c.Disjuncts[i], c.Schema)
				if err != nil {
					return nil, err
				}
				return Naive(ctx, c.Schema, counted, c.Disjuncts[i], ty, opts, onBursts)
			case p.Plan == nil:
				return &Result{Answers: datalog.NewRelation("q", p.Query.Arity())}, nil
			case ex == "pipelined":
				return Pipelined(ctx, p.Plan, counted, opts, onBursts)
			}
			return FastFailing(ctx, p.Plan, counted, opts, onBursts)
		}
	}
	stream := func(burst []datalog.Tuple) {
		for _, tup := range burst {
			o.Streamed = append(o.Streamed, oracle.Key(tup.Strings()))
		}
	}
	run := runs[0] // a CQ runs on its executor itself
	if len(runs) > 1 {
		run = func(ctx context.Context, emit func([]datalog.Tuple)) (*Result, error) {
			return Union(ctx, "q", c.Disjuncts[0].Arity(), runs, opts, func(burst []datalog.Tuple, _ bool) { emit(burst) })
		}
	}
	res, err := run(context.Background(), stream)
	if err != nil {
		t.Fatalf("seed %d, %s %+v: %v", c.Seed, ex, opts, err)
	}
	o.Truncated, o.Count = res.Truncated, res.TotalAccesses()
	for _, tup := range res.Answers.Tuples() {
		o.Answers = append(o.Answers, oracle.Key(tup.Strings()))
	}
	for _, ctr := range counters {
		for k := range ctr.AccessSet() {
			o.Accesses[k] = true
		}
	}
	return o
}
