package cq

import (
	"encoding/binary"
	"strconv"
)

// A query's shape is the query with every distinct constant replaced by a
// slot, slots being numbered in order of first occurrence — body, negated
// atoms, head, the order Validate records in Typing.Consts. Everything the
// planner derives from a query (d-graph, GFP pruning, ⊂-minimal plan)
// depends on the shape alone: a constant a is only the artificial relation
// ℓ_a whose extension is the single fact ⟨a⟩ (Section III), and what that
// fact holds matters to the execution, not to the plan. r(a, X), s(a, Y)
// and r(a, X), s(b, Y) differ in shape — one constant joins two atoms, or
// two constants do not — while r(a, X) and r(b, X) share theirs.

// SlotName is the constant that stands for slot k in a shape: $0, $1, …
func SlotName(k int) string { return "$" + strconv.Itoa(k) }

// slots numbers distinct constants in order of first occurrence.
type slots struct {
	consts []string
	index  map[string]int // built once consts outgrows a linear scan
}

// of returns the slot of a constant, the next free one when it is new.
func (s *slots) of(value string) int {
	if s.index != nil {
		k, ok := s.index[value]
		if !ok {
			k = len(s.consts)
			s.index[value] = k
			s.consts = append(s.consts, value)
		}
		return k
	}
	for k, c := range s.consts {
		if c == value {
			return k
		}
	}
	// Queries hold a few constants and a scan beats a map; a text made of
	// thousands must not turn that into a quadratic walk.
	if len(s.consts) == 16 {
		s.index = make(map[string]int, 32)
		for k, c := range s.consts {
			s.index[c] = k
		}
		return s.of(value)
	}
	s.consts = append(s.consts, value)
	return len(s.consts) - 1
}

// mapConsts returns a copy of q with every constant c replaced by f(c),
// visiting the constants in slot order: body, negated atoms, head.
func (q *CQ) mapConsts(f func(string) string) *CQ {
	terms := func(ts []Term) []Term {
		out := make([]Term, len(ts))
		for i, t := range ts {
			if !t.IsVar {
				t.Name = f(t.Name)
			}
			out[i] = t
		}
		return out
	}
	atoms := func(as []Atom) []Atom {
		var out []Atom
		for _, a := range as {
			out = append(out, Atom{Pred: a.Pred, Args: terms(a.Args)})
		}
		return out
	}
	out := &CQ{Name: q.Name}
	out.Body = atoms(q.Body)
	out.Negated = atoms(q.Negated)
	out.Head = terms(q.Head)
	return out
}

// Shape splits q into its shape — constant k replaced by SlotName(k) — and
// its constants by slot. Instantiate puts them together again.
func Shape(q *CQ) (shape *CQ, consts []string) {
	var s slots
	shape = q.mapConsts(func(c string) string { return SlotName(s.of(c)) })
	return shape, s.consts
}

// Instantiate returns the query that has consts[k] wherever shape — the
// result of Shape, or any query made of its atoms, such as its minimization
// — has slot k. Distinct slots must hold distinct constants for the result
// to be of that shape.
func Instantiate(shape *CQ, consts []string) *CQ {
	value := make(map[string]string, len(consts))
	for k, c := range consts {
		value[SlotName(k)] = c
	}
	return shape.mapConsts(func(slot string) string { return value[slot] })
}

// AppendShapeKey appends to key an encoding of q's shape and returns it
// with q's constants by slot: the split Shape makes, without building the
// shape. The encoding is injective — two queries get equal keys exactly when
// their shapes are structurally equal — for any CQ, parsed or built: every
// name is length-prefixed, so none needs to follow the parser's identifier
// rules.
func AppendShapeKey(key []byte, q *CQ) ([]byte, []string) {
	var s slots
	key = appendName(key, q.Name)
	key = s.appendAtoms(key, q.Body)
	key = s.appendAtoms(key, q.Negated)
	key = s.appendTerms(key, q.Head)
	return key, s.consts
}

func appendName(key []byte, name string) []byte {
	key = binary.AppendUvarint(key, uint64(len(name)))
	return append(key, name...)
}

func (s *slots) appendAtoms(key []byte, atoms []Atom) []byte {
	key = binary.AppendUvarint(key, uint64(len(atoms)))
	for _, a := range atoms {
		key = appendName(key, a.Pred)
		key = s.appendTerms(key, a.Args)
	}
	return key
}

func (s *slots) appendTerms(key []byte, terms []Term) []byte {
	key = binary.AppendUvarint(key, uint64(len(terms)))
	for _, t := range terms {
		if t.IsVar {
			key = appendName(append(key, 'v'), t.Name)
		} else {
			key = binary.AppendUvarint(append(key, 'c'), uint64(s.of(t.Name)))
		}
	}
	return key
}
