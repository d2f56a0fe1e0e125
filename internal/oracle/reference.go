package oracle

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"toorjah/internal/cq"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
	"toorjah/internal/storage"
)

// Ref is the reference's outcome: the sorted answers, as Key strings, and the
// set of accesses made, as sourcetest.Access keys — for the naive algorithm a
// pure function of the instance, whatever the probing order, the batching or
// the representation of values.
type Ref struct {
	Answers  []string
	Accesses map[string]bool
}

// Reference answers a union of disjuncts — one disjunct is a CQ — with an
// implementation of the naive algorithm (Fig. 1) of its own, in string
// space: it probes every source with every untried binding of known values,
// one binding at a time, through source.ProbeStrings, keeps the extracted
// rows as strings, and evaluates each disjunct by a backtracking join over
// them. No symbol ID is touched. A union answers what its disjuncts answer
// and makes the accesses they make.
func Reference(sch *schema.Schema, reg *source.Registry, disjuncts []*cq.CQ) (*Ref, error) {
	ref, answers := &Ref{Accesses: map[string]bool{}}, map[string]bool{}
	for _, q := range disjuncts {
		n, err := runNaive(sch, reg, q)
		if err != nil {
			return nil, err
		}
		maps.Copy(answers, n.answers)
		maps.Copy(ref.Accesses, n.accesses)
	}
	ref.Answers = slices.Sorted(maps.Keys(answers))
	return ref, nil
}

func mustReference(c *Case) *Ref {
	reg, err := source.FromDatabase(c.Schema, c.DB, 0)
	if err == nil {
		var ref *Ref
		if ref, err = Reference(c.Schema, reg, c.Disjuncts); err == nil {
			return ref
		}
	}
	panic(fmt.Sprintf("oracle: seed %d: %v", c.Seed, err))
}

// naiveRun is one disjunct's naive run: answers, accesses, and the values
// each domain came to know.
type naiveRun struct {
	answers, accesses map[string]bool
	known             map[schema.Domain]map[string]bool
}

func runNaive(sch *schema.Schema, reg *source.Registry, q *cq.CQ) (*naiveRun, error) {
	ty, err := cq.Validate(q, sch)
	if err != nil {
		return nil, err
	}
	n := &naiveRun{answers: map[string]bool{}, accesses: map[string]bool{}, known: map[schema.Domain]map[string]bool{}}
	addValue := func(d schema.Domain, v string) {
		if n.known[d] == nil {
			n.known[d] = map[string]bool{}
		}
		n.known[d][v] = true
	}
	for c, d := range ty.ConstDomain {
		addValue(d, c)
	}

	rows := map[string][]storage.Row{}
	seenRow := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, rel := range sch.Relations() {
			w := reg.Source(rel.Name)
			if w == nil {
				return nil, fmt.Errorf("oracle: no source bound for %s", rel.Name)
			}
			var pools [][]string
			for _, d := range rel.InputDomains() {
				pools = append(pools, slices.Sorted(maps.Keys(n.known[d])))
			}
			for _, binding := range product(pools) {
				key := sourcetest.Access{Relation: rel.Name, Binding: binding}.Key()
				if n.accesses[key] {
					continue
				}
				n.accesses[key] = true
				changed = true
				// The reference is a test's own computation: no caller's context governs it.
				extracted, err := source.ProbeStrings(context.Background(), w, [][]string{binding})
				if err != nil {
					return nil, fmt.Errorf("oracle: %s%q: %w", rel.Name, binding, err)
				}
				for _, row := range extracted[0] {
					if rk := rel.Name + "\x00" + row.Key(); !seenRow[rk] {
						seenRow[rk] = true
						rows[rel.Name] = append(rows[rel.Name], row)
						for p, v := range row {
							addValue(rel.Domains[p], v)
						}
					}
				}
			}
		}
	}

	// The positive body joined over the extracted rows, then the negated
	// atoms checked against them, then the head projected — all on strings.
	env := map[string]string{}
	unify := func(a cq.Atom, row storage.Row) bool { // binds env so that a matches row
		for p, tm := range a.Args {
			if v, bound := env[tm.Name]; !tm.IsVar && tm.Name != row[p] || tm.IsVar && bound && v != row[p] {
				return false
			} else if tm.IsVar && !bound {
				env[tm.Name] = row[p]
			}
		}
		return true
	}
	var join func(i int)
	join = func(i int) {
		if i < len(q.Body) {
			for _, row := range rows[q.Body[i].Pred] {
				outer := maps.Clone(env)
				if unify(q.Body[i], row) {
					join(i + 1)
				}
				env = outer
			}
			return
		}
		for _, na := range q.Negated { // ground, by safety
			if g := ground(na.Args, env); slices.ContainsFunc(rows[na.Pred], func(row storage.Row) bool { return slices.Equal(row, g) }) {
				return
			}
		}
		n.answers[Key(ground(q.Head, env))] = true
	}
	join(0)
	return n, nil
}

// Plant plants an answer of q in db and returns it as a Key. It draws a
// body assignment in which every variable takes a value the naive algorithm
// reaches in its domain, deletes the rows its negated atoms match and
// inserts the rows its body needs: the naive algorithm probes every input
// value of a planted row, so it extracts them all. With negation it also
// plants a decoy — the body rows of another assignment with a row its first
// negated atom matches, an answer only a negation ignored would give. A
// deletion can leave a value unreached, so the caller checks the reference
// obtains the answer. Plant works on any instance and reports false when a
// variable's domain reaches no value.
func Plant(sch *schema.Schema, db *storage.Database, q *cq.CQ, rng *rand.Rand) (string, bool) {
	ty, err := cq.Validate(q, sch)
	if err != nil {
		return "", false
	}
	reg, err := source.FromDatabase(sch, db, 0)
	if err != nil {
		return "", false
	}
	n, err := runNaive(sch, reg, q)
	if err != nil {
		return "", false
	}
	// assign draws a value for every variable from what its domain reached.
	assign := func() (map[string]string, bool) {
		env := map[string]string{}
		for _, v := range slices.Sorted(maps.Keys(ty.VarDomain)) {
			pool := slices.Sorted(maps.Keys(n.known[ty.VarDomain[v]]))
			if len(pool) == 0 {
				return nil, false
			}
			env[v] = pool[rng.Intn(len(pool))]
		}
		return env, true
	}
	env, ok := assign()
	if !ok {
		return "", false
	}
	edit(db, q.Negated, env, true)
	edit(db, q.Body, env, false)
	if len(q.Negated) > 0 {
		decoy, _ := assign()
		edit(db, append(slices.Clone(q.Body), q.Negated[0]), decoy, false)
	}
	return Key(ground(q.Head, env)), true
}

// product lists every binding that takes one value from each pool.
func product(pools [][]string) [][]string {
	out := [][]string{{}}
	for _, pool := range pools {
		var next [][]string
		for _, b := range out {
			for _, v := range pool {
				next = append(next, append(slices.Clone(b), v))
			}
		}
		out = next
	}
	return out
}

// ground instantiates terms under env.
func ground(terms []cq.Term, env map[string]string) storage.Row {
	row := make(storage.Row, len(terms))
	for p, tm := range terms {
		if row[p] = tm.Name; tm.IsVar {
			row[p] = env[tm.Name]
		}
	}
	return row
}

// edit inserts — or deletes — the rows of atoms under env.
func edit(db *storage.Database, atoms []cq.Atom, env map[string]string, del bool) {
	for _, a := range atoms {
		if del {
			db.Table(a.Pred).Delete(ground(a.Args, env))
		} else {
			db.Table(a.Pred).Insert(ground(a.Args, env))
		}
	}
}
