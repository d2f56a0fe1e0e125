package cq

import (
	"fmt"
	"strconv"

	"toorjah/internal/schema"
)

// ConstPrefix prefixes the names of the artificial relations created by
// EliminateConstants (the paper's ℓ_a relations), which are named by slot:
// l_0, l_1, … A schema that already uses one of those names is refused.
const ConstPrefix = "l_"

// ConstRelation describes an artificial unary relation introduced for a
// query constant: an output-only relation of the constant's abstract domain
// whose extension is exactly the singleton {⟨value⟩}.
type ConstRelation struct {
	Name   string
	Value  string
	Domain schema.Domain
}

// Preprocessed is the result of constant elimination: an equivalent
// constant-free query over the schema extended with one artificial relation
// per constant.
type Preprocessed struct {
	// Query is the constant-free rewriting of the original query. For every
	// occurrence of a constant a at a body position of domain A, a fresh
	// variable replaces the constant and an atom l_k(X) is appended, k being
	// the constant's slot.
	Query *CQ
	// Schema is the input schema extended with the artificial relations, in
	// slot order, each marked with its constant (schema.Relation.Const).
	Schema *schema.Schema
	// Consts lists the artificial relations by slot.
	Consts []ConstRelation
	// HeadConsts maps, for each head position holding a constant in the
	// original query, the position to the constant. The rewritten head uses
	// a variable bound by the corresponding artificial atom.
	HeadConsts map[int]string
}

// EliminateConstants rewrites q into an equivalent constant-free query, as
// in Section III of the paper: every constant a acts as an artificial
// relation ℓ_a with a single output attribute whose content is exactly ⟨a⟩.
// For example q(Y) :- r(a, Y) becomes q(Y) :- r(X, Y), l_0(X).
//
// The constants are numbered by the typing, not by q: slot k belongs to
// typing.Consts[k]. The typing may therefore come from a query q was
// minimized from — minimization keeps every constant but can drop the atom
// it first occurred in — and the slots still are those of the query as
// written. Nothing downstream looks at a constant's value: the artificial
// relation only points at it, and whoever executes the plan decides what
// each slot holds.
func EliminateConstants(q *CQ, s *schema.Schema, typing *Typing) (*Preprocessed, error) {
	out := &Preprocessed{
		Query:      &CQ{Name: q.Name},
		Schema:     s.Clone(),
		Consts:     make([]ConstRelation, len(typing.Consts)),
		HeadConsts: make(map[int]string),
	}
	used := make(map[string]bool)
	for _, v := range q.Vars() {
		used[v] = true
	}
	slotOf := make(map[string]int, len(typing.Consts))
	for k, value := range typing.Consts {
		name := ConstPrefix + strconv.Itoa(k)
		r, err := schema.NewRelation(name, "o", typing.ConstDomain[value])
		if err != nil {
			return nil, err
		}
		r.Const = &value
		if err := out.Schema.Add(r); err != nil {
			return nil, fmt.Errorf("constant %q: %w", value, err)
		}
		slotOf[value] = k
		out.Consts[k] = ConstRelation{Name: name, Value: value, Domain: r.Domains[0]}
	}
	constVar := make([]string, len(typing.Consts)) // slot -> replacement variable, once its atom exists
	handle := func(value string) (string, error) {
		k, ok := slotOf[value]
		if !ok {
			return "", fmt.Errorf("constant %q has no inferred domain", value)
		}
		if constVar[k] == "" {
			v := "X_" + strconv.Itoa(k)
			for i := 2; used[v]; i++ {
				v = fmt.Sprintf("X_%d_%d", k, i)
			}
			used[v] = true
			constVar[k] = v
			out.Query.Body = append(out.Query.Body, Atom{Pred: out.Consts[k].Name, Args: []Term{V(v)}})
		}
		return constVar[k], nil
	}
	rewriteArgs := func(args []Term) ([]Term, error) {
		nargs := make([]Term, len(args))
		for i, t := range args {
			if t.IsVar {
				nargs[i] = t
				continue
			}
			v, err := handle(t.Name)
			if err != nil {
				return nil, err
			}
			nargs[i] = V(v)
		}
		return nargs, nil
	}
	// The artificial atoms are appended as they are first encountered, then
	// the original atoms follow; order within the body is immaterial.
	for _, a := range q.Body {
		nargs, err := rewriteArgs(a.Args)
		if err != nil {
			return nil, err
		}
		out.Query.Body = append(out.Query.Body, Atom{Pred: a.Pred, Args: nargs})
	}
	for _, a := range q.Negated {
		nargs, err := rewriteArgs(a.Args)
		if err != nil {
			return nil, err
		}
		out.Query.Negated = append(out.Query.Negated, Atom{Pred: a.Pred, Args: nargs})
	}
	out.Query.Head = make([]Term, len(q.Head))
	for i, t := range q.Head {
		if t.IsVar {
			out.Query.Head[i] = t
			continue
		}
		out.HeadConsts[i] = t.Name
		v, err := handle(t.Name)
		if err != nil {
			return nil, err
		}
		out.Query.Head[i] = V(v)
	}
	for k, v := range constVar {
		if v == "" {
			// Its relation would sit in the schema as a free source of a
			// value the query never mentions.
			return nil, fmt.Errorf("constant %q of the typing does not occur in query %s", typing.Consts[k], q.Name)
		}
	}
	return out, nil
}
