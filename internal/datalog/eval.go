package datalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"toorjah/internal/cq"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// Tuple is one row of a relation, in the engine's stored form: interned
// symbol IDs. It is the stored row type of package storage, so an
// extraction travels from a table through its source into a cache relation
// without a copy or a conversion. Constants intern on entry (query parse,
// rule heads); values materialize back into strings only at the result
// boundary via Strings.
type Tuple = storage.IRow

// T builds a tuple from string values, interning them — the boundary
// constructor used by tests and by callers holding boundary data.
func T(vals ...string) Tuple { return sym.InternAll(vals) }

// Relation is a set of equal-length tuples with lazily built hash indexes on
// position subsets. All keys — membership and index — are packed symbol
// IDs, 4 bytes per value.
type Relation struct {
	Name   string
	Arity  int
	tuples []Tuple
	seen   map[string]bool
	// indexes holds one hash index per position list a Lookup has asked
	// for, built on first use and extended on insert. A relation carries a
	// handful at most (one per way a rule joins into it), so finding one is
	// a scan comparing position lists.
	indexes []*index
}

// index groups a relation's tuples by their values at fixed positions.
type index struct {
	positions []int
	// group maps the packed values at positions to an offset in buckets;
	// the indirection lets an insert extend a bucket without re-storing —
	// and so re-allocating — its key.
	group   map[string]int
	buckets [][]Tuple
}

// add files a tuple under its values at the index's positions.
func (ix *index) add(t Tuple) {
	var kb [64]byte
	k := kb[:0]
	for _, p := range ix.positions {
		k = sym.AppendKey(k, t[p:p+1])
	}
	if b, ok := ix.group[string(k)]; ok {
		ix.buckets[b] = append(ix.buckets[b], t)
		return
	}
	ix.group[string(k)] = len(ix.buckets)
	ix.buckets = append(ix.buckets, []Tuple{t})
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity, seen: make(map[string]bool)}
}

// Reset empties the relation for reuse (under a new Name and Arity, if the
// caller sets them). The tuple slice and the membership map keep their
// capacity but none of their entries — no tuple stays reachable through the
// relation — and the indexes are discarded.
func (r *Relation) Reset() {
	clear(r.tuples)
	r.tuples = r.tuples[:0]
	clear(r.seen)
	clear(r.indexes)
	r.indexes = r.indexes[:0]
}

// Insert adds a tuple and reports whether it was new.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("relation %s: inserting arity-%d tuple into arity-%d relation", r.Name, len(t), r.Arity))
	}
	var kb [64]byte
	k := sym.AppendKey(kb[:0], t)
	if r.seen[string(k)] {
		return false
	}
	r.seen[string(k)] = true
	r.tuples = append(r.tuples, t)
	for _, ix := range r.indexes {
		ix.add(t)
	}
	return true
}

// Contains reports membership of a tuple.
func (r *Relation) Contains(t Tuple) bool {
	var kb [64]byte
	return r.seen[string(sym.AppendKey(kb[:0], t))]
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the underlying tuple slice; callers must not modify it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Lookup returns the tuples whose values at the given positions equal vals.
// With no positions it returns all tuples. The lookup is backed by a hash
// index built on first use, and the result is the index's own bucket, not a
// copy: callers must not modify it.
func (r *Relation) Lookup(positions []int, vals []sym.ID) []Tuple {
	if len(positions) == 0 {
		return r.tuples
	}
	ix := r.indexOn(positions)
	var kb [64]byte
	if b, ok := ix.group[string(sym.AppendKey(kb[:0], vals))]; ok {
		return ix.buckets[b]
	}
	return nil
}

// indexOn returns the index on the given positions, building it over the
// current tuples when no Lookup has asked for it before.
func (r *Relation) indexOn(positions []int) *index {
	for _, ix := range r.indexes {
		if slices.Equal(ix.positions, positions) {
			return ix
		}
	}
	ix := &index{positions: slices.Clone(positions), group: make(map[string]int)}
	for _, t := range r.tuples {
		ix.add(t)
	}
	r.indexes = append(r.indexes, ix)
	return ix
}

// DB maps predicate names to relations.
type DB map[string]*Relation

// Get returns the relation, creating an empty one of the given arity when
// absent.
func (db DB) Get(name string, arity int) *Relation {
	r, ok := db[name]
	if !ok {
		r = NewRelation(name, arity)
		db[name] = r
	}
	return r
}

// Insert adds a tuple to the named relation, creating it when needed.
func (db DB) Insert(name string, t Tuple) bool { return db.Get(name, len(t)).Insert(t) }

// Clone returns a DB sharing no relation storage with the receiver.
func (db DB) Clone() DB {
	out := make(DB, len(db))
	for name, r := range db {
		nr := NewRelation(name, r.Arity)
		for _, t := range r.tuples {
			nr.Insert(t)
		}
		out[name] = nr
	}
	return out
}

// Summary renders relation names with cardinalities, sorted by name.
//
//toorjahvet:boundary (debug rendering, not an evaluation path)
func (db DB) Summary() string {
	names := make([]string, 0, len(db))
	for n := range db {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s:%d", n, db[n].Len())
	}
	return strings.Join(parts, " ")
}

// Eval computes the least fixpoint of the program over the extensional DB
// using stratified semi-naive evaluation, and returns a DB holding the IDB
// relations. The input DB is not modified.
func Eval(p *Program, edb DB) (DB, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	idb := make(DB)
	arity := make(map[string]int)
	for _, r := range p.Rules {
		arity[r.Head.Pred] = len(r.Head.Args)
	}
	lookup := func(name string) *Relation {
		if r, ok := idb[name]; ok {
			return r
		}
		if r, ok := edb[name]; ok {
			return r
		}
		return nil
	}
	for _, stratum := range strata {
		inStratum := make(map[string]bool, len(stratum))
		for _, pred := range stratum {
			inStratum[pred] = true
			idb.Get(pred, arity[pred])
		}
		var rules []*Rule
		for _, r := range p.Rules {
			if inStratum[r.Head.Pred] {
				rules = append(rules, r)
			}
		}
		if err := evalStratum(rules, inStratum, idb, lookup); err != nil {
			return nil, err
		}
	}
	return idb, nil
}

// evalStratum runs semi-naive evaluation for one stratum's rules.
func evalStratum(rules []*Rule, inStratum map[string]bool, idb DB, lookup func(string) *Relation) error {
	// Round 0: evaluate every rule over the full current database.
	delta := make(map[string]*Relation)
	for _, r := range rules {
		derived, err := evalRule(r, lookup, nil, -1)
		if err != nil {
			return err
		}
		for _, t := range derived {
			if idb[r.Head.Pred].Insert(t) {
				d, ok := delta[r.Head.Pred]
				if !ok {
					d = NewRelation(r.Head.Pred, len(t))
					delta[r.Head.Pred] = d
				}
				d.Insert(t)
			}
		}
	}
	// Subsequent rounds: for every rule and every body position whose
	// predicate changed, join the delta there with full relations elsewhere.
	for len(delta) > 0 {
		next := make(map[string]*Relation)
		for _, r := range rules {
			for i, a := range r.Body {
				d, ok := delta[a.Pred]
				if !ok || !inStratum[a.Pred] {
					continue
				}
				derived, err := evalRule(r, lookup, d.tuples, i)
				if err != nil {
					return err
				}
				for _, t := range derived {
					if idb[r.Head.Pred].Insert(t) {
						nd, ok := next[r.Head.Pred]
						if !ok {
							nd = NewRelation(r.Head.Pred, len(t))
							next[r.Head.Pred] = nd
						}
						nd.Insert(t)
					}
				}
			}
		}
		delta = next
	}
	return nil
}

// constIDs interns the constant terms of an atom once, so the join loops
// compare symbol IDs instead of strings; variable positions hold 0 (never
// a valid ID).
func constIDs(a cq.Atom) []sym.ID {
	out := make([]sym.ID, len(a.Args))
	for i, term := range a.Args {
		if !term.IsVar {
			out[i] = sym.Intern(term.Name)
		}
	}
	return out
}

// evalRule derives head tuples for one rule. When deltaPos >= 0, the body
// atom at that position ranges over the delta tuples instead of its full
// relation (semi-naive differentiation); it is joined first, so the delta is
// walked once, front to back, and needs no index. Negated atoms are checked
// last; safety guarantees they are ground by then. The whole join runs on
// symbol IDs: atom constants intern once up front, variable bindings are IDs.
func evalRule(r *Rule, lookup func(string) *Relation, delta []Tuple, deltaPos int) ([]Tuple, error) {
	var out []Tuple
	bind := make(map[string]sym.ID)
	// Order the body atoms: the delta atom first (it is typically smallest),
	// then greedily by number of bound variables.
	order := bodyOrder(r, deltaPos)
	bodyConst := make([][]sym.ID, len(r.Body))
	for i, a := range r.Body {
		bodyConst[i] = constIDs(a)
	}
	negConst := make([][]sym.ID, len(r.Negated))
	for i, a := range r.Negated {
		negConst[i] = constIDs(a)
	}
	headConst := constIDs(r.Head)
	// trail lists the variables bound so far, innermost last, so a step
	// unbinds what it bound without keeping a list per candidate tuple.
	var trail []string
	var rec func(step int) error
	rec = func(step int) error {
		if step == len(order) {
			for ni, a := range r.Negated {
				rel := lookup(a.Pred)
				t, ok := groundAtom(a, negConst[ni], bind)
				if !ok {
					return fmt.Errorf("rule %s: negated atom %s not ground", r, a)
				}
				if rel != nil && rel.Contains(t) {
					return nil
				}
			}
			head := make(Tuple, len(r.Head.Args))
			for i, term := range r.Head.Args {
				if term.IsVar {
					head[i] = bind[term.Name]
				} else {
					head[i] = headConst[i]
				}
			}
			out = append(out, head)
			return nil
		}
		i := order[step]
		a := r.Body[i]
		cids := bodyConst[i]
		// The matching loop below re-checks every constant and bound
		// variable, so the delta — placed first, when nothing but constants
		// could narrow it — is matched as it stands.
		candidates := delta
		if i != deltaPos {
			rel := lookup(a.Pred)
			if rel == nil {
				return fmt.Errorf("rule %s: unknown relation %s", r, a.Pred)
			}
			var pbuf [8]int
			var vbuf [8]sym.ID
			positions, vals := pbuf[:0], vbuf[:0]
			for p, term := range a.Args {
				if !term.IsVar {
					positions = append(positions, p)
					vals = append(vals, cids[p])
				} else if v, ok := bind[term.Name]; ok {
					positions = append(positions, p)
					vals = append(vals, v)
				}
			}
			candidates = rel.Lookup(positions, vals)
		}
		mark := len(trail)
		for _, t := range candidates {
			ok := true
			for p, term := range a.Args {
				if !term.IsVar {
					if t[p] != cids[p] {
						ok = false
						break
					}
					continue
				}
				if v, bound := bind[term.Name]; bound {
					if v != t[p] {
						ok = false
						break
					}
					continue
				}
				bind[term.Name] = t[p]
				trail = append(trail, term.Name)
			}
			if ok {
				if err := rec(step + 1); err != nil {
					return err
				}
			}
			for _, v := range trail[mark:] {
				delete(bind, v)
			}
			trail = trail[:mark]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

// bodyOrder returns an evaluation order for the rule's body atoms: delta
// atom first, then greedily preferring atoms sharing the most variables with
// those already placed.
func bodyOrder(r *Rule, deltaPos int) []int {
	n := len(r.Body)
	order := make([]int, 0, n)
	placed := make(map[string]bool)
	used := make([]bool, n)
	place := func(i int) {
		order = append(order, i)
		used[i] = true
		for _, t := range r.Body[i].Args {
			if t.IsVar {
				placed[t.Name] = true
			}
		}
	}
	if deltaPos >= 0 {
		place(deltaPos)
	}
	for len(order) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range r.Body[i].Args {
				if t.IsVar && placed[t.Name] {
					score++
				} else if !t.IsVar {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		place(best)
	}
	return order
}

// groundAtom instantiates an atom under a binding; ok is false when a
// variable is unbound. cids carries the atom's pre-interned constants.
func groundAtom(a cq.Atom, cids []sym.ID, bind map[string]sym.ID) (Tuple, bool) {
	t := make(Tuple, len(a.Args))
	for i, term := range a.Args {
		if !term.IsVar {
			t[i] = cids[i]
			continue
		}
		v, ok := bind[term.Name]
		if !ok {
			return nil, false
		}
		t[i] = v
	}
	return t, true
}

// EvalRuleWithDelta derives the head tuples of one rule over db, with the
// body atom at position deltaPos ranging over the delta tuples instead of
// its full relation. It is the incremental-join primitive of the optimized
// executors: when new tuples arrive in one cache, only the joins involving
// them are recomputed. Pass deltaPos = -1 to evaluate against full
// relations.
func EvalRuleWithDelta(r *Rule, db DB, delta []Tuple, deltaPos int) ([]Tuple, error) {
	lookup := func(name string) *Relation { return db[name] }
	return evalRule(r, lookup, delta, deltaPos)
}

// EvalQuery evaluates a single conjunctive query over a database and returns
// the answer relation (deduplicated head tuples). It wraps the query into a
// one-rule program.
func EvalQuery(q *cq.CQ, db DB) (*Relation, error) {
	p := &Program{}
	p.Add(&Rule{Head: cq.Atom{Pred: q.Name, Args: q.Head}, Body: q.Body, Negated: q.Negated})
	idb, err := Eval(p, db)
	if err != nil {
		return nil, err
	}
	return idb[q.Name], nil
}
