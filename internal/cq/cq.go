// Package cq implements conjunctive queries (CQs) and unions of conjunctive
// queries (UCQs) over schemas with access limitations, together with the
// classic operations the planner of Calì & Martinenghi (ICDE 2008) relies
// on: parsing, validation against a schema (including abstract-domain
// consistency), constant elimination into artificial unary relations,
// Chandra–Merlin containment, and CQ minimization.
//
// It also splits a query into what planning depends on and what it does not
// (shape.go): its shape — every distinct constant replaced by a numbered
// slot — with an injective key to cache plans under, and its constants by
// slot, which Instantiate puts back. Validate, EliminateConstants and Shape
// number the constants alike, in order of first occurrence, and constant
// elimination names the artificial relations by that slot, so nothing a
// plan is made of spells out a value.
//
// A CQ is written in Datalog notation:
//
//	q(N) :- r1(A, N, Y1), r2(volare, Y2, A)
//
// Identifiers starting with an upper-case letter or '_' are variables;
// everything else (including quoted strings and numbers) is a constant. An
// optional "not " prefix marks a negated atom (the safe-negation extension
// mentioned in the paper's conclusion).
package cq

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// Term is a variable or a constant appearing in an atom or in a query head.
type Term struct {
	// Name is the variable name when IsVar, otherwise the constant value.
	Name  string
	IsVar bool
}

// V builds a variable term.
func V(name string) Term { return Term{Name: name, IsVar: true} }

// C builds a constant term.
func C(value string) Term { return Term{Name: value} }

// String renders the term; constants that could be mistaken for variables
// are quoted.
func (t Term) String() string {
	if t.IsVar {
		return t.Name
	}
	if needsQuoting(t.Name) {
		return "'" + t.Name + "'"
	}
	return t.Name
}

func needsQuoting(s string) bool {
	if s == "" {
		return true
	}
	// Mirror the parser's classification exactly: parseTerm treats a
	// leading upper-case rune (by unicode, via the same byte-to-rune
	// conversion) or underscore as a variable.
	if first := rune(s[0]); unicode.IsUpper(first) || first == '_' {
		return true // would parse as a variable
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '(', ')', '\'', ' ', '\t', '\n', '\r', ':', '-', '<':
			return true
		}
	}
	return false
}

// Atom is a predicate applied to a list of terms.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// String renders the atom, e.g. "r2(volare, Y2, A)".
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ", "))
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	return Atom{Pred: a.Pred, Args: append([]Term(nil), a.Args...)}
}

// CQ is a conjunctive query head(X) :- body, with an optional set of safely
// negated atoms.
type CQ struct {
	// Name is the head predicate name.
	Name string
	// Head is the list of head terms (distinguished variables or constants).
	Head []Term
	// Body is the list of positive atoms.
	Body []Atom
	// Negated is the list of negated atoms (safe-negation extension); they
	// participate in the final evaluation but never provide bindings.
	Negated []Atom
}

// Arity returns the arity of the query head.
func (q *CQ) Arity() int { return len(q.Head) }

// Clone returns a deep copy of the query.
func (q *CQ) Clone() *CQ {
	c := &CQ{Name: q.Name, Head: append([]Term(nil), q.Head...)}
	for _, a := range q.Body {
		c.Body = append(c.Body, a.Clone())
	}
	for _, a := range q.Negated {
		c.Negated = append(c.Negated, a.Clone())
	}
	return c
}

// String renders the query in Datalog notation.
func (q *CQ) String() string {
	var b strings.Builder
	b.WriteString(q.Name)
	b.WriteByte('(')
	for i, t := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString(") :- ")
	for i, a := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	for _, a := range q.Negated {
		if len(q.Body) > 0 || len(q.Negated) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("not ")
		b.WriteString(a.String())
	}
	return b.String()
}

// Vars returns the sorted set of variable names occurring anywhere in the
// query (head, body, or negated atoms).
func (q *CQ) Vars() []string {
	set := make(map[string]bool)
	add := func(ts []Term) {
		for _, t := range ts {
			if t.IsVar {
				set[t.Name] = true
			}
		}
	}
	add(q.Head)
	for _, a := range q.Body {
		add(a.Args)
	}
	for _, a := range q.Negated {
		add(a.Args)
	}
	return sortedKeys(set)
}

// BodyVars returns the sorted set of variables occurring in positive body
// atoms.
func (q *CQ) BodyVars() []string {
	set := make(map[string]bool)
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsVar {
				set[t.Name] = true
			}
		}
	}
	return sortedKeys(set)
}

// JoinVars returns the sorted set of variables occurring in at least two
// distinct positions of positive body atoms (including twice within one
// atom). These are the variables whose occurrences give rise to candidate
// strong arcs in the dependency graph.
func (q *CQ) JoinVars() []string {
	count := make(map[string]int)
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsVar {
				count[t.Name]++
			}
		}
	}
	set := make(map[string]bool)
	for v, n := range count {
		if n >= 2 {
			set[v] = true
		}
	}
	return sortedKeys(set)
}

// HasJoin reports whether the query contains at least one join (a variable
// occurring in two or more body positions).
func (q *CQ) HasJoin() bool { return len(q.JoinVars()) > 0 }

// IsConstantFree reports whether no constants occur in the body.
func (q *CQ) IsConstantFree() bool {
	for _, a := range q.Body {
		for _, t := range a.Args {
			if !t.IsVar {
				return false
			}
		}
	}
	for _, a := range q.Negated {
		for _, t := range a.Args {
			if !t.IsVar {
				return false
			}
		}
	}
	return true
}

// UCQ is a union of conjunctive queries sharing head predicate and arity.
type UCQ struct {
	Name      string
	Disjuncts []*CQ
}

// Arity returns the arity of the union's head, or -1 when empty.
func (u *UCQ) Arity() int {
	if len(u.Disjuncts) == 0 {
		return -1
	}
	return u.Disjuncts[0].Arity()
}

// Validate checks that all disjuncts share the head name and arity.
func (u *UCQ) Validate() error {
	if len(u.Disjuncts) == 0 {
		return fmt.Errorf("UCQ %s has no disjuncts", u.Name)
	}
	n := u.Disjuncts[0].Arity()
	for _, d := range u.Disjuncts {
		if d.Name != u.Name {
			return fmt.Errorf("UCQ %s: disjunct has head %s", u.Name, d.Name)
		}
		if d.Arity() != n {
			return fmt.Errorf("UCQ %s: disjuncts with arities %d and %d", u.Name, n, d.Arity())
		}
	}
	return nil
}

// String renders the union one disjunct per line.
func (u *UCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, d := range u.Disjuncts {
		parts[i] = d.String()
	}
	return strings.Join(parts, "\n")
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
