package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"toorjah/internal/gen"
	"toorjah/internal/plan"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// auditedSet runs one executor over logging counters and returns its sorted
// answers and the set of accesses that reached the tables.
func auditedSet(t *testing.T, f *fixture, run func(f *fixture) (*Result, error)) (string, map[string]bool) {
	t.Helper()
	counted, counters := f.reg.Counted(true)
	res, err := run(&fixture{sch: f.sch, q: f.q, ty: f.ty, plan: f.plan, reg: counted})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("complete run flagged truncated")
	}
	set := map[string]bool{}
	n := 0
	for _, c := range counters {
		for _, a := range c.Log() {
			set[a.Key()] = true
			n++
		}
	}
	if n != len(set) {
		t.Errorf("%d accesses made, %d distinct: an access was repeated", n, len(set))
	}
	return strings.Join(res.SortedAnswers(), ";"), set
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, strings.ReplaceAll(k, "\x00", "|"))
	}
	sort.Strings(out)
	return out
}

// assertDeltaEquivalence: the pipelined engine, whatever its parallelism
// and batch bound, over the tables or behind sources that can block (its
// round trips then run on goroutines), and fast-fail without the early test
// (which would stop short of the fixpoint on an empty answer) make the same
// set of accesses — the domains maintained from deltas reach exactly the
// fixpoint the rules define — never one the naive algorithm does not make,
// and all three agree on the answers.
func assertDeltaEquivalence(t *testing.T, f *fixture) (answers string, accesses map[string]bool) {
	t.Helper()
	ctx := context.Background()
	wantAns, naiveSet := auditedSet(t, f, func(f *fixture) (*Result, error) {
		return Naive(ctx, f.sch, f.reg, f.q, f.ty, Options{}, nil)
	})
	ffAns, ffSet := auditedSet(t, f, func(f *fixture) (*Result, error) {
		return FastFailing(ctx, f.plan, f.reg, Options{NoEarlyFailure: true}, nil)
	})
	if ffAns != wantAns {
		t.Errorf("fast-fail answers = [%s], naive = [%s]", ffAns, wantAns)
	}
	for k := range ffSet {
		if !naiveSet[k] {
			t.Errorf("fast-fail made access %q that naive never made", strings.ReplaceAll(k, "\x00", "|"))
		}
	}
	for path, f := range map[string]*fixture{"tables": f, "blocking": f.blocking()} {
		for _, opts := range []Options{
			{},
			{Parallelism: 1, MaxBatch: -1},
			{Parallelism: 8, MaxBatch: 3},
		} {
			ans, set := auditedSet(t, f, func(f *fixture) (*Result, error) {
				return Pipelined(ctx, f.plan, f.reg, opts, nil)
			})
			if ans != wantAns {
				t.Errorf("pipelined %+v over %s: answers = [%s], naive = [%s]", opts, path, ans, wantAns)
			}
			if got, want := sortedKeys(set), sortedKeys(ffSet); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("pipelined %+v over %s: accesses = %v, fast-fail = %v", opts, path, got, want)
			}
		}
	}
	return wantAns, ffSet
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

// TestDeltaEquivalenceRandomized is the same property over the generated
// workloads of the paper's Section V shape: random schemas, queries with
// joins and constants, random instances.
func TestDeltaEquivalenceRandomized(t *testing.T) {
	cfg := gen.Scaled()
	cfg.MaxTuples = 60
	cfg.MaxDomainValues = 20
	seeds := int64(40)
	if testing.Short() {
		seeds = 12
	}
	ran := 0
	for seed := int64(900); seed < 900+seeds; seed++ {
		g := gen.New(seed, cfg)
		sch := g.Schema()
		q, ok := g.Query(sch, "q")
		if !ok {
			continue
		}
		f, err := newFixture(sch, g.Instance(sch), q)
		if errors.Is(err, errNotAnswerable) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, q, err)
		}
		ran++
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { assertDeltaEquivalence(t, f) })
	}
	if ran < int(seeds)/4 {
		t.Errorf("only %d of %d seeds produced an answerable query", ran, seeds)
	}
}

// TestEnumeratorVisitsEachBindingOnce: whenever the values of a node's input
// domains arrive — before a pass, or in the middle of one, from an emit
// callback that ingests an extraction — the passes together enumerate the
// cross product of the final domains, every binding exactly once, and
// nothing while a domain is empty.
func TestEnumeratorVisitsEachBindingOnce(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(3)
		sc := getScratch()
		es := sc.enum(width)
		st := &groupState{enums: []*enumState{es}}
		c := &plan.Cache{Index: 0, DomainPreds: make([]string, width)}

		// arrivals[i] are the values position i still has to receive.
		arrivals := make([][]sym.ID, width)
		for i := range arrivals {
			for v := 0; v < 1+rng.Intn(5); v++ {
				arrivals[i] = append(arrivals[i], sym.ID(100*(i+1)+v))
			}
		}
		want := 1
		for _, a := range arrivals {
			want *= len(a)
		}
		arrive := func() {
			i := rng.Intn(width)
			if len(arrivals[i]) == 0 {
				return
			}
			// Known values arrive again, as they do from overlapping deltas.
			es.pos[i].add(arrivals[i][0])
			if rng.Intn(3) > 0 {
				es.pos[i].add(arrivals[i][0])
			}
			arrivals[i] = arrivals[i][1:]
		}
		pending := func() bool {
			for _, a := range arrivals {
				if len(a) > 0 {
					return true
				}
			}
			return false
		}

		visits := map[string]int{}
		for {
			more := pending()
			for n := rng.Intn(3); n > 0; n-- {
				arrive()
			}
			complete := true
			for i := range es.pos {
				complete = complete && len(es.pos[i].old)+len(es.pos[i].fresh) > 0
			}
			emitted, err := st.newBindings(c, func(b []sym.ID) error {
				visits[fmt.Sprint(b)]++
				if rng.Intn(4) == 0 {
					arrive()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if emitted && !complete {
				t.Fatalf("seed %d: a pass emitted while a domain was empty", seed)
			}
			if !more && !emitted {
				break // every value had arrived and a pass found nothing new
			}
		}
		if len(visits) != want {
			t.Errorf("seed %d: %d distinct bindings enumerated, want %d", seed, len(visits), want)
		}
		for b, n := range visits {
			if n != 1 {
				t.Errorf("seed %d: binding %s enumerated %d times", seed, b, n)
			}
		}
		sc.release()
	}
}
