package cq

import (
	"fmt"

	"toorjah/internal/schema"
)

// Typing records the abstract domain of every variable and constant of a
// query, as inferred from the argument positions they occupy.
type Typing struct {
	// VarDomain maps variable name to its abstract domain.
	VarDomain map[string]schema.Domain
	// ConstDomain maps constant value to its abstract domain.
	ConstDomain map[string]schema.Domain
	// Consts lists the distinct constants in order of first occurrence —
	// body, then negated atoms; a head constant always occurs in the body.
	// The position of a constant here is its slot: the numbering Shape,
	// EliminateConstants and a plan's constant vector agree on.
	Consts []string
}

// SeedDomains returns the sorted domains of the constants occurring in the
// query; these are the initial obtainable domains of the evaluation.
func (t *Typing) SeedDomains() []schema.Domain {
	set := make(map[schema.Domain]bool)
	for _, d := range t.ConstDomain {
		set[d] = true
	}
	out := make([]schema.Domain, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sortDomains(out)
	return out
}

func sortDomains(ds []schema.Domain) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// Validate checks a query against a schema and infers its typing. It
// enforces:
//
//   - every body predicate exists in the schema, with matching arity;
//   - every variable and constant occupies positions of a single abstract
//     domain (the paper's abstract-domain discipline: joins are only
//     meaningful within one domain);
//   - every head variable occurs in a positive body atom (safety);
//   - every variable of a negated atom occurs in a positive atom (safe
//     negation).
func Validate(q *CQ, s *schema.Schema) (*Typing, error) {
	t := &Typing{
		VarDomain:   make(map[string]schema.Domain),
		ConstDomain: make(map[string]schema.Domain),
	}
	record := func(term Term, d schema.Domain, where Atom) error {
		m := t.VarDomain
		if !term.IsVar {
			m = t.ConstDomain
		}
		prev, ok := m[term.Name]
		if ok && prev != d {
			kind := "variable"
			if !term.IsVar {
				kind = "constant"
			}
			return fmt.Errorf("query %s: %s %q used with domains %s and %s (%s)",
				q.Name, kind, term.Name, prev, d, where)
		}
		if !ok && !term.IsVar {
			t.Consts = append(t.Consts, term.Name)
		}
		m[term.Name] = d
		return nil
	}
	checkAtom := func(a Atom) error {
		r := s.Relation(a.Pred)
		if r == nil {
			return fmt.Errorf("query %s: unknown relation %s", q.Name, a.Pred)
		}
		if len(a.Args) != r.Arity() {
			return fmt.Errorf("query %s: atom %s has %d arguments, relation has arity %d",
				q.Name, a, len(a.Args), r.Arity())
		}
		for i, term := range a.Args {
			if err := record(term, r.Domains[i], a); err != nil {
				return err
			}
		}
		return nil
	}
	if len(q.Body) == 0 {
		return nil, fmt.Errorf("query %s: empty body", q.Name)
	}
	for _, a := range q.Body {
		if err := checkAtom(a); err != nil {
			return nil, err
		}
	}
	for _, a := range q.Negated {
		if err := checkAtom(a); err != nil {
			return nil, err
		}
	}
	// Safety of the head and of negated atoms.
	positive := make(map[string]bool)
	for _, a := range q.Body {
		for _, term := range a.Args {
			if term.IsVar {
				positive[term.Name] = true
			}
		}
	}
	for _, term := range q.Head {
		if term.IsVar && !positive[term.Name] {
			return nil, fmt.Errorf("query %s: head variable %s does not occur in the body", q.Name, term.Name)
		}
		if !term.IsVar {
			if _, ok := t.ConstDomain[term.Name]; !ok {
				return nil, fmt.Errorf("query %s: head constant %q does not occur in the body (domain unknown)",
					q.Name, term.Name)
			}
		}
	}
	for _, a := range q.Negated {
		for _, term := range a.Args {
			if term.IsVar && !positive[term.Name] {
				return nil, fmt.Errorf("query %s: negated atom %s uses variable %s not bound by a positive atom",
					q.Name, a, term.Name)
			}
		}
	}
	return t, nil
}
