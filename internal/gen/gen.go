// Package gen generates the synthetic workloads of the paper's experimental
// evaluation (Section V): the fixed publication schema with randomly
// populated sources behind the q1–q3 experiments (Fig. 6), and the random
// schemata, conjunctive queries, and database instances behind the
// aggregate experiments (Figs. 10 and 11).
//
// All generation is deterministic in the seed. The published parameter
// ranges are the defaults: schemata of 5–10 relations with 1–5 attributes,
// queries of 2–6 atoms with at least one join, abstract domains of 100–1000
// values, and relations of 10–10,000 tuples; the paper's fairness filters
// (answerable queries only, no queries over free relations only) are
// applied by Query.
package gen

import (
	"fmt"
	"math/rand"

	"toorjah/internal/cq"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
)

// Config holds the workload generation parameters.
type Config struct {
	// Schema shape.
	MinRelations, MaxRelations int
	MinArity, MaxArity         int
	NumDomains                 int
	// InputProb is the probability that an argument is an input argument.
	InputProb float64
	// MaxInputs caps the input arguments per relation. The naive algorithm
	// probes the full cross-product of the input domains, so k input
	// arguments over d-value domains cost d^k accesses; the cap keeps the
	// baseline runnable (the paper's testbed burned 9–15 s per naive query
	// on exactly this blow-up).
	MaxInputs int
	// Query shape.
	MinAtoms, MaxAtoms int
	// ReuseProb is the probability that a position reuses an existing
	// variable of its domain (creating joins); ConstProb the probability it
	// holds a constant instead.
	ReuseProb, ConstProb float64
	// MaxHeadVars bounds the head arity.
	MaxHeadVars int
	// Instance shape.
	MinTuples, MaxTuples             int
	MinDomainValues, MaxDomainValues int
}

// Paper returns the parameter ranges published in Section V.
func Paper() Config {
	return Config{
		MinRelations: 5, MaxRelations: 10,
		MinArity: 1, MaxArity: 5,
		NumDomains: 6,
		InputProb:  0.3,
		MaxInputs:  2,
		MinAtoms:   2, MaxAtoms: 6,
		ReuseProb: 0.5, ConstProb: 0.1,
		MaxHeadVars: 3,
		MinTuples:   10, MaxTuples: 10000,
		MinDomainValues: 100, MaxDomainValues: 1000,
	}
}

// Scaled returns the paper's shape parameters with instance sizes scaled
// down for unit tests and quick runs.
func Scaled() Config {
	c := Paper()
	c.MinTuples, c.MaxTuples = 10, 200
	c.MinDomainValues, c.MaxDomainValues = 10, 40
	return c
}

// Fig10 returns the calibrated configuration of the Fig. 10/11
// reproduction. The paper publishes the structural ranges (5–10 relations,
// arity 1–5, 2–6 atoms, ≥1 join) but not the join/constant densities of its
// query generator; these densities are calibrated so that the aggregate
// d-graph statistics land on the published ones (paper: 20.54 arcs, 1.89
// strong arcs, 81.02% saved accesses on average — this configuration:
// ≈23 arcs, ≈2.2 strong, ≈79% saved). Instance sizes are scaled down from
// 10–10,000 to 10–120 tuples to keep the naive baseline runnable (the
// paper's naive runs took 9–15 s per query on a quad-core testbed).
func Fig10() Config {
	c := Paper()
	c.InputProb = 0.55
	c.ReuseProb = 0.9
	c.ConstProb = 0.3
	c.NumDomains = 8
	c.MinTuples, c.MaxTuples = 10, 120
	c.MinDomainValues, c.MaxDomainValues = 10, 30
	return c
}

// Generator produces schemas, queries and instances deterministically from
// a seed.
type Generator struct {
	rng *rand.Rand
	cfg Config
}

// New creates a generator.
func New(seed int64, cfg Config) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

func (g *Generator) intBetween(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.rng.Intn(hi-lo+1)
}

// domainName names the i-th abstract domain.
func domainName(i int) schema.Domain { return schema.Domain(fmt.Sprintf("D%d", i)) }

// Schema generates a random schema within the configured shape. At least
// one relation is forced to be free so that some value flow can start.
func (g *Generator) Schema() *schema.Schema {
	n := g.intBetween(g.cfg.MinRelations, g.cfg.MaxRelations)
	rels := make([]*schema.Relation, 0, n)
	for i := 0; i < n; i++ {
		arity := g.intBetween(g.cfg.MinArity, g.cfg.MaxArity)
		domains := make([]schema.Domain, arity)
		pattern := make([]byte, arity)
		inputs := 0
		for p := 0; p < arity; p++ {
			domains[p] = domainName(g.rng.Intn(g.cfg.NumDomains))
			if i > 0 && inputs < g.cfg.MaxInputs && g.rng.Float64() < g.cfg.InputProb {
				pattern[p] = 'i'
				inputs++
			} else {
				pattern[p] = 'o' // relation 0 is free: a guaranteed seed
			}
		}
		rels = append(rels, schema.MustRelation(fmt.Sprintf("r%d", i+1), string(pattern), domains...))
	}
	return schema.MustNew(rels...)
}

// constValue returns the v-th constant of a domain; instances draw from the
// same pools, so query constants actually occur in the data.
func constValue(d schema.Domain, v int) string {
	return fmt.Sprintf("%s_v%d", sanitize(string(d)), v)
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c-'A'+'a')
		}
	}
	return string(out)
}

// domainSize returns the deterministic pool size of a domain under the
// configuration (a pseudo-random but seed-independent function of the
// name so query generation and instance generation agree).
func (g *Generator) domainSize(d schema.Domain) int {
	h := 0
	for i := 0; i < len(d); i++ {
		h = h*31 + int(d[i])
	}
	if h < 0 {
		h = -h
	}
	span := g.cfg.MaxDomainValues - g.cfg.MinDomainValues + 1
	return g.cfg.MinDomainValues + h%span
}

// Query generates a random conjunctive query over the schema satisfying the
// paper's fairness filters: valid, at least one join, answerable, and not
// over free relations only. It reports ok=false when no such query was
// found within the retry budget.
func (g *Generator) Query(sch *schema.Schema, name string) (*cq.CQ, bool) {
	rels := sch.Relations()
	for attempt := 0; attempt < 200; attempt++ {
		nAtoms := g.intBetween(g.cfg.MinAtoms, g.cfg.MaxAtoms)
		q := &cq.CQ{Name: name}
		varPool := make(map[schema.Domain][]string)
		varCount := 0
		for a := 0; a < nAtoms; a++ {
			rel := rels[g.rng.Intn(len(rels))]
			args := make([]cq.Term, rel.Arity())
			for p := 0; p < rel.Arity(); p++ {
				d := rel.Domains[p]
				pool := varPool[d]
				switch {
				case g.rng.Float64() < g.cfg.ConstProb:
					args[p] = cq.C(constValue(d, g.rng.Intn(g.domainSize(d))))
				case len(pool) > 0 && g.rng.Float64() < g.cfg.ReuseProb:
					args[p] = cq.V(pool[g.rng.Intn(len(pool))])
				default:
					varCount++
					v := fmt.Sprintf("X%d", varCount)
					varPool[d] = append(pool, v)
					args[p] = cq.V(v)
				}
			}
			q.Body = append(q.Body, cq.Atom{Pred: rel.Name, Args: args})
		}
		if !q.HasJoin() {
			continue
		}
		// Head: a non-empty subset of body variables.
		vars := q.BodyVars()
		if len(vars) == 0 {
			continue
		}
		nHead := g.intBetween(1, min(g.cfg.MaxHeadVars, len(vars)))
		perm := g.rng.Perm(len(vars))
		for i := 0; i < nHead; i++ {
			q.Head = append(q.Head, cq.V(vars[perm[i]]))
		}
		ty, err := cq.Validate(q, sch)
		if err != nil {
			continue
		}
		// Fairness filter 1: exclude queries over free relations only.
		allFree := true
		for _, a := range q.Body {
			if !sch.Relation(a.Pred).Free() {
				allFree = false
				break
			}
		}
		if allFree {
			continue
		}
		// Fairness filter 2: exclude non-answerable queries.
		queryable := sch.QueryableRelations(ty.SeedDomains())
		answerable := true
		for _, a := range q.Body {
			if !queryable[a.Pred] {
				answerable = false
				break
			}
		}
		if !answerable {
			continue
		}
		return q, true
	}
	return nil, false
}

// Instance populates every relation of the schema with random tuples drawn
// from the per-domain constant pools.
func (g *Generator) Instance(sch *schema.Schema) *storage.Database {
	db := storage.NewDatabase()
	for _, rel := range sch.Relations() {
		tab, err := db.Create(rel.Name, rel.Arity())
		if err != nil {
			panic(err) // fresh database: unreachable
		}
		n := g.intBetween(g.cfg.MinTuples, g.cfg.MaxTuples)
		for i := 0; i < n; i++ {
			row := make(storage.Row, rel.Arity())
			for p, d := range rel.Domains {
				row[p] = constValue(d, g.rng.Intn(g.domainSize(d)))
			}
			tab.Insert(row)
		}
	}
	return db
}
