// Package oracle is the one randomized end-to-end oracle of the test suites.
// Generate builds a case — a random schema with access patterns, an instance
// with a planted answer and hostile values, a CQ or UCQ, on some seeds a
// limit and a mutation script; Reference answers it with the naive algorithm
// of Fig. 1 in string space; and Check holds what one surface of the system
// answered to that reference, property by property. The paper calls an
// answer correct when the naive algorithm obtains it and requires a plan to
// obtain exactly those answers with a subset of naive's accesses: that is
// what Check asserts, and a planted answer makes it mean something, since on
// random instances most queries answer nothing. The randomized tests of
// internal/exec, the façade and internal/service are thin drivers over it;
// the package imports no executor, and a driver reports a run as an Outcome.
package oracle

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"toorjah/internal/cq"
	"toorjah/internal/gen"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
)

// Case is one generated test case.
type Case struct {
	Seed      int64
	Schema    *schema.Schema
	DB        *storage.Database // the instance, an answer of Disjuncts[0] planted
	Disjuncts []*cq.CQ          // one CQ, or the disjuncts of a UCQ
	Limit     int               // a limit to run the case under too; 0 for none
	Script    []Batch           // batches to replay on DB (Replay); nil for none
	Ref       *Ref              // the reference's outcome over DB

	mu     sync.Mutex
	groups map[string][2]string // Check's groups: the first surface and its value
}

// Batch is one insert or delete batch of a mutation script.
type Batch struct {
	Rel    string
	Delete bool
	Rows   []storage.Row
}

// config draws small instances: the naive algorithm probes the cross product
// of every value it knows, and the drivers run each case a few hundred
// times. Four domains over up to six relations make joins, repeated
// variables and constants in join positions common.
func config() gen.Config {
	c := gen.Scaled()
	c.MinRelations, c.MaxRelations = 3, 6
	c.NumDomains = 4
	c.ConstProb = 0.25
	c.MinTuples, c.MaxTuples = 5, 30
	c.MinDomainValues, c.MaxDomainValues = 5, 12
	return c
}

// Generate builds the case of a seed, deterministically: schema, instance
// and query from gen.New, every value renamed by hostile, the shapes gen
// never emits (a negated atom, a variable repeated inside an atom, a head
// constant, a union, a limit, a mutation script) each on a share of seeds,
// and an answer planted. It draws again until the reference obtains the
// planted answer.
func Generate(seed int64) *Case {
	rng := rand.New(rand.NewSource(seed))
	g := gen.New(seed, config())
	for draw := 0; draw < 100; draw++ {
		sch := g.Schema()
		q, ok := g.Query(sch, "q")
		if !ok {
			continue
		}
		c := &Case{Seed: seed, Schema: sch, DB: Build(sch, load(sch, g.Instance(sch), hostile))}
		if q = renameQuery(q); !valid(q, sch) {
			continue
		}
		c.Disjuncts = []*cq.CQ{c.reshape(q, rng)}
		if rng.Intn(4) == 0 { // a union of two or three disjuncts
			for n, tries := 2+rng.Intn(2), 0; len(c.Disjuncts) < n && tries < 30; tries++ {
				if d, ok := g.Query(sch, "q"); ok && d.Arity() == c.Disjuncts[0].Arity() {
					if d = renameQuery(d); valid(d, sch) {
						c.Disjuncts = append(c.Disjuncts, d)
					}
				}
			}
		}
		planted, ok := Plant(sch, c.DB, c.Disjuncts[0], rng)
		if c.Ref = mustReference(c); !ok || !slices.Contains(c.Ref.Answers, planted) {
			continue
		}
		if rng.Intn(4) == 0 {
			c.Limit = 1 + rng.Intn(3)
		}
		if rng.Intn(2) == 0 {
			c.Script = Mutations(rng, sch, c.DB, 3+rng.Intn(6))
		}
		return c
	}
	panic(fmt.Sprintf("oracle: seed %d: no answer planted in 100 draws", seed))
}

// reshape gives q the shapes gen never emits, each on a share of seeds; a
// change that would make q invalid is not made.
func (c *Case) reshape(q *cq.CQ, rng *rand.Rand) *cq.CQ {
	pools := Pools(c.Schema, c.DB)
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	try := func(share int, change func(d *cq.CQ)) {
		if rng.Intn(share) != 0 {
			return
		}
		d := q.Clone()
		if change(d); valid(d, c.Schema) {
			q = d
		}
	}
	// A variable repeated inside an atom: two positions of one domain.
	try(3, func(d *cq.CQ) {
		a := d.Body[rng.Intn(len(d.Body))]
		doms := c.Schema.Relation(a.Pred).Domains
		for i := range doms {
			if j := slices.Index(doms[i+1:], doms[i]); j >= 0 && a.Args[i].IsVar {
				a.Args[i+1+j] = a.Args[i]
				return
			}
		}
	})
	// A safe negated atom: body variables of the right domain, else constants.
	try(3, func(d *cq.CQ) {
		ty, _ := cq.Validate(d, c.Schema)
		rel := c.Schema.Relations()[rng.Intn(c.Schema.Len())]
		a := cq.Atom{Pred: rel.Name}
		for _, dom := range rel.Domains {
			vars := slices.Sorted(maps.Keys(ty.VarDomain))
			vars = slices.DeleteFunc(vars, func(v string) bool { return ty.VarDomain[v] != dom })
			if len(vars) > 0 && rng.Intn(4) > 0 {
				a.Args = append(a.Args, cq.V(pick(vars)))
			} else {
				a.Args = append(a.Args, cq.C(pick(pools[dom])))
			}
		}
		d.Negated = append(d.Negated, a)
	})
	// A head constant: one the body has, or one put in place of a variable.
	try(4, func(d *cq.CQ) {
		a := d.Body[rng.Intn(len(d.Body))]
		p := rng.Intn(len(a.Args))
		if a.Args[p].IsVar {
			a.Args[p] = cq.C(pick(pools[c.Schema.Relation(a.Pred).Domains[p]]))
		}
		d.Head = append(d.Head, a.Args[p])
	})
	return q
}

// Text is the case's query as /query takes it: a UCQ one disjunct a line.
func (c *Case) Text() string {
	lines := make([]string, len(c.Disjuncts))
	for i, d := range c.Disjuncts {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}

// Load is the case's instance as a script: an insert batch per relation.
func (c *Case) Load() []Batch { return load(c.Schema, c.DB, nil) }

// Copy returns a copy of the instance, for a driver that mutates its tables.
func (c *Case) Copy() *storage.Database { return Build(c.Schema, c.Load()) }

// Replay returns the case after its script: the instance copied with the
// batches applied, and its reference.
func (c *Case) Replay() *Case {
	r := &Case{Seed: c.Seed, Schema: c.Schema, DB: Build(c.Schema, append(c.Load(), c.Script...)), Disjuncts: c.Disjuncts, Limit: c.Limit}
	r.Ref = mustReference(r)
	return r
}

// Sibling returns the case's disjuncts with every constant moved to the next
// value of its domain, so each is of its disjunct's shape with other
// constants; nil when some constant has no other value to move to or two
// would meet.
func (c *Case) Sibling() []*cq.CQ {
	pools := Pools(c.Schema, c.DB)
	var out []*cq.CQ
	for _, q := range c.Disjuncts {
		ty, _ := cq.Validate(q, c.Schema)
		shape, consts := cq.Shape(q)
		seen := map[string]bool{}
		for k, v := range consts {
			pool := pools[ty.ConstDomain[v]]
			at, found := slices.BinarySearch(pool, v)
			if !found {
				pool = slices.Insert(slices.Clone(pool), at, v)
			}
			consts[k] = pool[(at+1)%len(pool)]
			if len(pool) < 2 || seen[consts[k]] {
				return nil
			}
			seen[consts[k]] = true
		}
		out = append(out, cq.Instantiate(shape, consts))
	}
	return out
}

// valid reports whether q is a query over sch.
func valid(q *cq.CQ, sch *schema.Schema) bool {
	_, err := cq.Validate(q, sch)
	return err == nil
}

// Key renders one answer tuple for comparison: its values joined by the unit
// separator, which no generated value holds.
func Key(values []string) string { return strings.Join(values, "\x1f") }

// hostile renames a value gen drew — the k-th of domain d, "d<d>_v<k>" —
// into one no identifier spells, injectively within a domain: the empty
// string, the slot-like "$<d>" and "l_<d>", and from there on upper case,
// spaces, dashes and commas, non-ASCII, double quotes and backslashes. A
// single quote and a newline are left out: a query text cannot hold them.
func hostile(v string) string {
	var d, k int
	if _, err := fmt.Sscanf(v, "d%d_v%d", &d, &k); err != nil {
		return v
	}
	switch k {
	case 0:
		return ""
	case 1:
		return fmt.Sprintf("$%d", d)
	case 2:
		return fmt.Sprintf("l_%d", d)
	}
	return fmt.Sprintf([]string{"Hello World %d.%d", "a-b,%d-%d", "É%dé%d", `say "%d" \%d`, "v%d_%d"}[k%5], d, k)
}

// load lists db's rows as an insert batch per relation, every value passed
// through rename when it is set.
func load(sch *schema.Schema, db *storage.Database, rename func(string) string) []Batch {
	var out []Batch
	for _, rel := range sch.Relations() {
		b := Batch{Rel: rel.Name}
		for _, row := range db.Table(rel.Name).Snapshot().Rows() {
			if rename != nil {
				row = slices.Clone(row)
				for p := range row {
					row[p] = rename(row[p])
				}
			}
			b.Rows = append(b.Rows, row)
		}
		out = append(out, b)
	}
	return out
}

// Build returns a database of sch's relations, filled by script.
func Build(sch *schema.Schema, script []Batch) *storage.Database {
	db := storage.NewDatabase()
	for _, rel := range sch.Relations() {
		_, _ = db.Create(rel.Name, rel.Arity()) // a fresh database: no name is taken
	}
	Apply(db, script)
	return db
}

func renameQuery(q *cq.CQ) *cq.CQ {
	shape, consts := cq.Shape(q)
	for k := range consts {
		consts[k] = hostile(consts[k])
	}
	return cq.Instantiate(shape, consts)
}

// Pools returns every domain's values in db, sorted.
func Pools(sch *schema.Schema, db *storage.Database) map[schema.Domain][]string {
	pools := map[schema.Domain][]string{}
	for _, b := range load(sch, db, nil) {
		for _, row := range b.Rows {
			for p, d := range sch.Relation(b.Rel).Domains {
				pools[d] = append(pools[d], row[p])
			}
		}
	}
	for d, pool := range pools {
		sort.Strings(pool)
		pools[d] = slices.Compact(pool)
	}
	return pools
}

// Mutations draws a replayable history of n batches over db's relations,
// values from db's pools: a third delete, and half of all rows are rows db
// holds, so deletes hit and inserts collide, and some batches change
// nothing.
func Mutations(rng *rand.Rand, sch *schema.Schema, db *storage.Database, n int) []Batch {
	pools := Pools(sch, db)
	out := make([]Batch, n)
	for i := range out {
		rel := sch.Relations()[rng.Intn(sch.Len())]
		b := Batch{Rel: rel.Name, Delete: rng.Intn(3) == 0}
		held := db.Table(rel.Name).Snapshot().Rows()
		for j := 1 + rng.Intn(4); j > 0; j-- {
			row := make(storage.Row, rel.Arity())
			for p, d := range rel.Domains {
				if pool := pools[d]; len(pool) > 0 {
					row[p] = pool[rng.Intn(len(pool))]
				}
			}
			if len(held) > 0 && rng.Intn(2) == 0 {
				row = held[rng.Intn(len(held))]
			}
			b.Rows = append(b.Rows, row)
		}
		out[i] = b
	}
	return out
}

// Apply applies a script to db's tables, batch by batch, through the entry
// points /ingest uses, so a table's commit hook sees each batch.
func Apply(db *storage.Database, script []Batch) {
	for _, b := range script {
		if b.Delete {
			db.Table(b.Rel).DeleteAll(b.Rows)
		} else {
			db.Table(b.Rel).InsertAll(b.Rows)
		}
	}
}
