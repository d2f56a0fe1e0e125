package toorjah

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"toorjah/internal/cache"
	"toorjah/internal/core"
	"toorjah/internal/cq"
	"toorjah/internal/exec"
	"toorjah/internal/gen"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
)

// stringReference is the outcome of the string-space oracle: the sorted
// comma-joined answer tuples and the set of accesses made (source.Access
// keys), which for the naive algorithm is a pure function of the instance —
// independent of probing order, batching, or value representation.
type stringReference struct {
	answers  []string
	accesses map[string]bool
}

// runStringReference is an independent re-implementation of the naive
// algorithm (Fig. 1) in pure string space: it probes sources one binding at
// a time through the legacy string Access API, deduplicates accesses on
// NUL-joined string keys, caches extracted rows as strings, and evaluates
// the query with a backtracking join over string rows. No symbol ID is
// ever touched. It is the oracle of TestStringSymbolEngineEquivalence:
// whatever the interned integer-tuple engine answers, this engine must
// answer too, with the identical access set.
func runStringReference(t *testing.T, sch *schema.Schema, reg *source.Registry, q *cq.CQ, ty *cq.Typing) stringReference {
	t.Helper()

	known := map[schema.Domain]map[string]bool{}
	addValue := func(d schema.Domain, v string) {
		m := known[d]
		if m == nil {
			m = map[string]bool{}
			known[d] = m
		}
		m[v] = true
	}
	for c, d := range ty.ConstDomain {
		addValue(d, c)
	}

	rows := map[string][][]string{}
	seenRow := map[string]bool{}
	accesses := map[string]bool{}

	for changed := true; changed; {
		changed = false
		for _, rel := range sch.Relations() {
			w := reg.Source(rel.Name)
			if w == nil {
				t.Fatalf("no source bound for %s", rel.Name)
			}
			inputs := rel.InputPositions()
			pools := make([][]string, len(inputs))
			empty := false
			for i, d := range rel.InputDomains() {
				for v := range known[d] {
					pools[i] = append(pools[i], v)
				}
				sort.Strings(pools[i])
				if len(pools[i]) == 0 {
					empty = true
					break
				}
			}
			if empty {
				continue
			}
			binding := make([]string, len(inputs))
			var walk func(i int)
			walk = func(i int) {
				if i == len(inputs) {
					key := source.Access{Relation: rel.Name, Binding: binding}.Key()
					if accesses[key] {
						return
					}
					accesses[key] = true
					changed = true
					extracted, err := source.ProbeStrings(context.Background(), w, [][]string{binding})
					if err != nil {
						t.Fatalf("%s%v: %v", rel.Name, binding, err)
					}
					for _, row := range extracted[0] {
						rk := rel.Name + "\x00" + row.Key()
						if seenRow[rk] {
							continue
						}
						seenRow[rk] = true
						cp := append([]string(nil), row...)
						rows[rel.Name] = append(rows[rel.Name], cp)
						for p, v := range cp {
							addValue(rel.Domains[p], v)
						}
					}
					return
				}
				for _, v := range pools[i] {
					binding[i] = v
					walk(i + 1)
				}
			}
			walk(0)
		}
	}

	// Final evaluation: backtracking join of the positive body over the
	// extracted string rows, then safe-negation checks, then head
	// projection — all on strings.
	env := map[string]string{}
	answerSet := map[string]bool{}
	resolve := func(tm cq.Term) string {
		if tm.IsVar {
			return env[tm.Name]
		}
		return tm.Name
	}
	negMatches := func(a cq.Atom, row []string) bool {
		for p, tm := range a.Args {
			if resolve(tm) != row[p] {
				return false
			}
		}
		return true
	}
	var join func(i int)
	join = func(i int) {
		if i == len(q.Body) {
			for _, na := range q.Negated {
				for _, row := range rows[na.Pred] {
					if negMatches(na, row) {
						return
					}
				}
			}
			out := make([]string, len(q.Head))
			for hi, tm := range q.Head {
				out[hi] = resolve(tm)
			}
			answerSet[strings.Join(out, ",")] = true
			return
		}
		a := q.Body[i]
		for _, row := range rows[a.Pred] {
			ok := true
			var bound []string
			for p, tm := range a.Args {
				if tm.IsVar {
					if v, has := env[tm.Name]; has {
						if v != row[p] {
							ok = false
							break
						}
					} else {
						env[tm.Name] = row[p]
						bound = append(bound, tm.Name)
					}
				} else if tm.Name != row[p] {
					ok = false
					break
				}
			}
			if ok {
				join(i + 1)
			}
			for _, n := range bound {
				delete(env, n)
			}
		}
	}
	join(0)

	answers := make([]string, 0, len(answerSet))
	for a := range answerSet {
		answers = append(answers, a)
	}
	sort.Strings(answers)
	return stringReference{answers: answers, accesses: accesses}
}

// mutateInstance advances the data to a new epoch: a handful of fresh rows
// (with both recycled and never-interned values) into every relation, so
// epoch-keyed caches and persistent snapshot indexes are exercised against
// genuinely changed contents.
func mutateInstance(sch *schema.Schema, db *storage.Database, seed int64) {
	for ri, rel := range sch.Relations() {
		tab := db.Table(rel.Name)
		existing := tab.Rows()
		for n := 0; n < 2; n++ {
			row := make(storage.Row, rel.Arity())
			for p := range row {
				if len(existing) > 0 && (n+p)%2 == 0 {
					row[p] = existing[(n+p)%len(existing)][p]
				} else {
					row[p] = fmt.Sprintf("fresh_%d_%d_%d_%d", seed, ri, n, p)
				}
			}
			tab.Insert(row)
		}
		if len(existing) > 1 {
			tab.Delete(existing[0])
		}
	}
}

// TestStringSymbolEngineEquivalence is the cross-representation acceptance
// property of the integer-tuple hot path: on randomly generated schemata,
// queries and instances, an independent string-space implementation of the
// naive algorithm and the interned symbol engine produce identical answers
// and — for the naive executor — the identical access set, across every
// executor × cross-query cache × batching combination, and again after the
// instance advances to a new data epoch. Run under -race this doubles as
// the concurrency check of the pipelined engine over shared symbol tables
// and caches.
func TestStringSymbolEngineEquivalence(t *testing.T) {
	cfg := gen.Scaled()
	cfg.MaxTuples = 80
	cfg.MaxDomainValues = 25
	seeds := int64(14)
	if testing.Short() {
		seeds = 6
	}
	ctx := context.Background()
	ran := 0
	for seed := int64(500); seed < 500+seeds; seed++ {
		g := gen.New(seed, cfg)
		sch := g.Schema()
		q, ok := g.Query(sch, "q")
		if !ok {
			continue
		}
		db := g.Instance(sch)
		reg, err := source.FromDatabase(sch, db, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Prepare(sch, q)
		if err != nil {
			t.Errorf("seed %d: prepare %s: %v", seed, q, err)
			continue
		}
		if !p.Answerable() {
			continue
		}
		ran++

		// One cross-query cache lives across both epochs of this workload:
		// after the mutation its entries are stale and only epoch-keying
		// keeps them from leaking into the answers.
		crossCache := cache.New(cache.Options{})

		for epoch := 0; epoch < 2; epoch++ {
			if epoch == 1 {
				mutateInstance(sch, db, seed)
			}
			ref := runStringReference(t, sch, reg, p.Query, p.Typing)
			want := strings.Join(ref.answers, ";")

			// The symbol-engine naive run must make exactly the reference's
			// accesses — same set, same count (neither ever repeats one).
			counted, counters := reg.Counted(true)
			nres, err := exec.Naive(ctx, sch, counted, p.Query, p.Typing, exec.Options{}, nil)
			if err != nil {
				t.Fatalf("seed %d epoch %d: naive: %v", seed, epoch, err)
			}
			if got := strings.Join(nres.SortedAnswers(), ";"); got != want {
				t.Errorf("seed %d epoch %d: naive answers = [%s], want [%s]\nschema:\n%s",
					seed, epoch, got, want, sch)
			}
			symSet := map[string]bool{}
			for _, c := range counters {
				for _, a := range c.Log() {
					symSet[a.Key()] = true
				}
			}
			for k := range ref.accesses {
				if !symSet[k] {
					t.Errorf("seed %d epoch %d: string engine access %q never made by symbol engine", seed, epoch, k)
				}
			}
			for k := range symSet {
				if !ref.accesses[k] {
					t.Errorf("seed %d epoch %d: symbol engine access %q never made by string engine", seed, epoch, k)
				}
			}
			if nres.TotalAccesses() != len(ref.accesses) {
				t.Errorf("seed %d epoch %d: naive made %d accesses, string engine %d",
					seed, epoch, nres.TotalAccesses(), len(ref.accesses))
			}

			// Full matrix: every executor × cache × batching returns the
			// reference answers; with the cache off, each executor's access
			// count is invariant under batching (a batch of N is N accesses),
			// and the optimized executors never exceed the naive count.
			executors := []struct {
				name string
				run  func(opts exec.Options) (*exec.Result, error)
			}{
				{"naive", func(opts exec.Options) (*exec.Result, error) {
					return exec.Naive(ctx, sch, reg, p.Query, p.Typing, opts, nil)
				}},
				{"fastfail", func(opts exec.Options) (*exec.Result, error) {
					return exec.FastFailing(ctx, p.Plan, reg, opts, nil)
				}},
				{"pipelined", func(opts exec.Options) (*exec.Result, error) {
					return exec.Pipelined(ctx, p.Plan, reg, opts, nil)
				}},
			}
			for _, ex := range executors {
				uncachedCount := -1
				for _, cc := range []*cache.Cache{nil, crossCache} {
					for _, mb := range []int{-1, 1, 16} {
						res, err := ex.run(exec.Options{MaxBatch: mb, Cache: cc})
						if err != nil {
							t.Fatalf("seed %d epoch %d: %s cache=%v mb=%d: %v", seed, epoch, ex.name, cc != nil, mb, err)
						}
						if got := strings.Join(res.SortedAnswers(), ";"); got != want {
							t.Errorf("seed %d epoch %d: %s cache=%v mb=%d answers = [%s], want [%s]",
								seed, epoch, ex.name, cc != nil, mb, got, want)
						}
						if cc == nil {
							if uncachedCount == -1 {
								uncachedCount = res.TotalAccesses()
							} else if res.TotalAccesses() != uncachedCount {
								t.Errorf("seed %d epoch %d: %s access count varies with batching: %d vs %d",
									seed, epoch, ex.name, res.TotalAccesses(), uncachedCount)
							}
							if res.TotalAccesses() > len(ref.accesses) {
								t.Errorf("seed %d epoch %d: %s made %d accesses > naive bound %d",
									seed, epoch, ex.name, res.TotalAccesses(), len(ref.accesses))
							}
						}
					}
				}
			}
		}
	}
	if ran < 7 && !testing.Short() {
		t.Errorf("only %d random workloads ran; generator too restrictive", ran)
	}
}
