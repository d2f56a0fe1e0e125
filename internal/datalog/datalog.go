// Package datalog implements a generic Datalog engine with stratified safe
// negation and semi-naive least-fixpoint evaluation. It is the substrate on
// which the query plans of Calì & Martinenghi (ICDE 2008) are expressed: the
// planner compiles an optimized d-graph into a Datalog program over cache
// and domain predicates, and the paper's reference semantics for a plan is
// the usual least fixpoint of that program (Section IV).
//
// The engine is self-contained: programs are sets of rules over tuples of
// interned values (the stored row type of package storage, so rows extracted
// from a source enter a relation as they are), extensional relations are
// supplied through a DB, and evaluation returns the intensional relations.
// Atoms reuse the term and atom types of package cq.
//
// There is one join, and it is compiled: Compile turns a rule — over full
// relations, or with one body atom ranging over a delta — into a fixed
// nested-loop order over register slots and index lookups, once; Run and
// Exists execute it any number of times, from any number of goroutines,
// each on a Machine of its own, without allocating. The executors run the
// programs their plan compiled for them (package plan); Eval, the
// least-fixpoint reference, compiles a program's rules and runs the same
// code. Relations (relation.go) keep membership and indexes in
// open-addressing tables hashed straight from the IDs, which point into the
// tuples the relation stores and keep no key of their own.
package datalog

import (
	"fmt"
	"sort"
	"strings"

	"toorjah/internal/cq"
)

// Rule is a Datalog rule: Head :- Body, not Negated.
type Rule struct {
	Head    cq.Atom
	Body    []cq.Atom
	Negated []cq.Atom
}

// RuleOf returns the rule that defines a conjunctive query: its head
// predicate is the query's name. The rule shares the query's terms and atoms.
func RuleOf(q *cq.CQ) *Rule {
	return &Rule{Head: cq.Atom{Pred: q.Name, Args: q.Head}, Body: q.Body, Negated: q.Negated}
}

// String renders the rule in Datalog notation; facts render without ":-".
func (r *Rule) String() string {
	if len(r.Body) == 0 && len(r.Negated) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, 0, len(r.Body)+len(r.Negated))
	for _, a := range r.Body {
		parts = append(parts, a.String())
	}
	for _, a := range r.Negated {
		parts = append(parts, "not "+a.String())
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ")
}

// Validate checks range restriction (safety): every head variable and every
// variable of a negated atom must occur in a positive body atom; facts must
// be ground.
func (r *Rule) Validate() error {
	positive := make(map[string]bool)
	for _, a := range r.Body {
		for _, t := range a.Args {
			if t.IsVar {
				positive[t.Name] = true
			}
		}
	}
	for _, t := range r.Head.Args {
		if t.IsVar && !positive[t.Name] {
			return fmt.Errorf("rule %s: unsafe head variable %s", r, t.Name)
		}
	}
	for _, a := range r.Negated {
		for _, t := range a.Args {
			if t.IsVar && !positive[t.Name] {
				return fmt.Errorf("rule %s: unsafe variable %s in negated atom", r, t.Name)
			}
		}
	}
	return nil
}

// Program is a set of Datalog rules. Predicates that appear in some rule
// head are intensional (IDB); all others are extensional (EDB) and must be
// provided by the evaluation DB.
type Program struct {
	Rules []*Rule
}

// Add appends a rule.
func (p *Program) Add(r *Rule) { p.Rules = append(p.Rules, r) }

// AddFact appends a ground fact head.
func (p *Program) AddFact(pred string, values ...string) {
	args := make([]cq.Term, len(values))
	for i, v := range values {
		args[i] = cq.C(v)
	}
	p.Add(&Rule{Head: cq.Atom{Pred: pred, Args: args}})
}

// Validate checks the safety of every rule and consistent predicate arities
// across the program.
func (p *Program) Validate() error {
	arity := make(map[string]int)
	// The rule is rendered only to label a clash: a generated program has
	// none, and planning a query validates its whole program.
	check := func(a cq.Atom, r *Rule) error {
		if n, ok := arity[a.Pred]; ok && n != len(a.Args) {
			return fmt.Errorf("%s: predicate %s used with arities %d and %d", r, a.Pred, n, len(a.Args))
		}
		arity[a.Pred] = len(a.Args)
		return nil
	}
	for _, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
		if err := check(r.Head, r); err != nil {
			return err
		}
		for _, a := range r.Body {
			if err := check(a, r); err != nil {
				return err
			}
		}
		for _, a := range r.Negated {
			if err := check(a, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// String renders the program one rule per line.
func (p *Program) String() string {
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}

// Stratify partitions the IDB predicates into strata such that positive
// dependencies stay within or below a stratum and negative dependencies go
// strictly below. It returns the predicates grouped by stratum, lowest
// first, or an error when a predicate depends negatively on itself through a
// cycle (the program is not stratifiable).
func (p *Program) Stratify() ([][]string, error) {
	idb := make(map[string]bool)
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	stratum := make(map[string]int)
	for pred := range idb {
		stratum[pred] = 0
	}
	n := len(idb)
	for round := 0; ; round++ {
		if round > n+1 {
			return nil, fmt.Errorf("program is not stratifiable (recursion through negation)")
		}
		changed := false
		for _, r := range p.Rules {
			h := r.Head.Pred
			for _, a := range r.Body {
				if idb[a.Pred] && stratum[a.Pred] > stratum[h] {
					stratum[h] = stratum[a.Pred]
					changed = true
				}
			}
			for _, a := range r.Negated {
				if idb[a.Pred] && stratum[a.Pred]+1 > stratum[h] {
					stratum[h] = stratum[a.Pred] + 1
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	max := 0
	for _, s := range stratum {
		if s > max {
			max = s
		}
	}
	out := make([][]string, max+1)
	preds := make([]string, 0, len(stratum))
	for pred := range stratum {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	for _, pred := range preds {
		s := stratum[pred]
		out[s] = append(out[s], pred)
	}
	return out, nil
}
