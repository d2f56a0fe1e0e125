// Package schema models relational schemas whose relations are only
// reachable through access patterns: every argument of a relation is either
// an input argument, which must be bound by a constant before the relation
// can be probed, or an output argument, which is returned by the probe.
//
// Arguments range over abstract domains (for instance Person or Paper):
// typed pools of constants that determine which extracted values may be used
// to bind which input arguments. The package also provides the domain-level
// queryability analysis of Calì & Martinenghi (ICDE 2008), Section II: a
// relation is queryable with respect to a set of seed domains if and only if
// there exists some database instance in which it can be accessed at least
// once starting from values of those domains.
package schema

import (
	"fmt"
	"strings"
)

// AccessMode is the mode of a single relation argument.
type AccessMode byte

const (
	// Input marks an argument that must be bound by a constant to access
	// the relation ('i' in the paper's pattern strings).
	Input AccessMode = 'i'
	// Output marks an argument returned by an access ('o').
	Output AccessMode = 'o'
)

// String returns "i" or "o".
func (m AccessMode) String() string { return string(byte(m)) }

// Valid reports whether m is one of Input or Output.
func (m AccessMode) Valid() bool { return m == Input || m == Output }

// Domain names an abstract domain. Domains compare by name.
type Domain string

// AccessPattern is the sequence of access modes of a relation, one per
// argument, e.g. "ooi" for a ternary relation whose last argument is input.
type AccessPattern []AccessMode

// ParsePattern parses a pattern string such as "ioo".
func ParsePattern(s string) (AccessPattern, error) {
	p := make(AccessPattern, 0, len(s))
	for i := 0; i < len(s); i++ {
		m := AccessMode(s[i])
		if !m.Valid() {
			return nil, fmt.Errorf("access pattern %q: position %d: want 'i' or 'o', got %q", s, i+1, string(s[i]))
		}
		p = append(p, m)
	}
	return p, nil
}

// String renders the pattern as a string of 'i'/'o' symbols.
func (p AccessPattern) String() string {
	var b strings.Builder
	for _, m := range p {
		b.WriteByte(byte(m))
	}
	return b.String()
}

// Free reports whether the pattern has no input arguments.
func (p AccessPattern) Free() bool {
	for _, m := range p {
		if m == Input {
			return false
		}
	}
	return true
}

// Inputs returns the zero-based positions of the input arguments, in order.
func (p AccessPattern) Inputs() []int {
	var out []int
	for i, m := range p {
		if m == Input {
			out = append(out, i)
		}
	}
	return out
}

// Outputs returns the zero-based positions of the output arguments, in order.
func (p AccessPattern) Outputs() []int {
	var out []int
	for i, m := range p {
		if m == Output {
			out = append(out, i)
		}
	}
	return out
}

// Relation is a relation schema: a name, an access pattern, and the abstract
// domain of each argument. It corresponds to the paper's signature
// r^α(A1,...,An).
type Relation struct {
	Name    string
	Pattern AccessPattern
	Domains []Domain
	// Const, when non-nil, makes this the artificial relation ℓ_a that
	// stands for a query constant a (the paper's Section III): a free unary
	// relation no source backs and nobody probes, its extension being the
	// single fact ⟨a⟩. It points at the constant as the query names it.
	// cq.EliminateConstants adds these to its copy of a schema; the
	// relations of a user's schema never carry one.
	Const *string

	// inputs caches Pattern.Inputs(): every probe of the relation asks for
	// its input positions, and the pattern is fixed at construction.
	inputs []int
}

// NewRelation builds and validates a relation schema. The pattern string has
// one 'i'/'o' per domain.
func NewRelation(name, pattern string, domains ...Domain) (*Relation, error) {
	p, err := ParsePattern(pattern)
	if err != nil {
		return nil, fmt.Errorf("relation %s: %w", name, err)
	}
	r := &Relation{Name: name, Pattern: p, Domains: domains, inputs: p.Inputs()}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// MustRelation is NewRelation that panics on error; intended for tests and
// examples with literal schemas.
func MustRelation(name, pattern string, domains ...Domain) *Relation {
	r, err := NewRelation(name, pattern, domains...)
	if err != nil {
		panic(err)
	}
	return r
}

// Arity returns the number of arguments of the relation.
func (r *Relation) Arity() int { return len(r.Domains) }

// Free reports whether the relation has no input arguments.
func (r *Relation) Free() bool { return r.Pattern.Free() }

// InputPositions returns the zero-based input argument positions. The slice
// is shared between calls and must not be modified.
func (r *Relation) InputPositions() []int { return r.inputs }

// OutputPositions returns the zero-based output argument positions.
func (r *Relation) OutputPositions() []int { return r.Pattern.Outputs() }

// InputDomains returns the domains of the input arguments, parallel to
// InputPositions.
func (r *Relation) InputDomains() []Domain {
	pos := r.InputPositions()
	out := make([]Domain, len(pos))
	for i, p := range pos {
		out[i] = r.Domains[p]
	}
	return out
}

// OutputDomains returns the domains of the output arguments, parallel to
// OutputPositions.
func (r *Relation) OutputDomains() []Domain {
	pos := r.OutputPositions()
	out := make([]Domain, len(pos))
	for i, p := range pos {
		out[i] = r.Domains[p]
	}
	return out
}

// Validate checks structural consistency of the relation schema.
func (r *Relation) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("relation with empty name")
	}
	if len(r.Pattern) != len(r.Domains) {
		return fmt.Errorf("relation %s: pattern %q has %d modes for %d domains",
			r.Name, r.Pattern, len(r.Pattern), len(r.Domains))
	}
	for i, m := range r.Pattern {
		if !m.Valid() {
			return fmt.Errorf("relation %s: invalid access mode at position %d", r.Name, i+1)
		}
	}
	for i, d := range r.Domains {
		if d == "" {
			return fmt.Errorf("relation %s: empty domain at position %d", r.Name, i+1)
		}
	}
	return nil
}

// String renders the schema in the paper's notation, e.g.
// "pub1^io(Paper,Person)".
func (r *Relation) String() string {
	parts := make([]string, len(r.Domains))
	for i, d := range r.Domains {
		parts[i] = string(d)
	}
	return fmt.Sprintf("%s^%s(%s)", r.Name, r.Pattern, strings.Join(parts, ","))
}

// Schema is a database schema: a set of relation schemas with distinct names.
type Schema struct {
	rels  map[string]*Relation
	order []string // insertion order, for deterministic iteration
}

// New builds a schema from the given relations.
func New(rels ...*Relation) (*Schema, error) {
	s := &Schema{rels: make(map[string]*Relation, len(rels))}
	for _, r := range rels {
		if err := s.Add(r); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(rels ...*Relation) *Schema {
	s, err := New(rels...)
	if err != nil {
		panic(err)
	}
	return s
}

// Add inserts a relation schema; relation names must be unique.
func (s *Schema) Add(r *Relation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, dup := s.rels[r.Name]; dup {
		return fmt.Errorf("duplicate relation %s in schema", r.Name)
	}
	s.rels[r.Name] = r
	s.order = append(s.order, r.Name)
	return nil
}

// Relation returns the relation schema with the given name, or nil.
func (s *Schema) Relation(name string) *Relation { return s.rels[name] }

// Has reports whether the schema contains a relation with the given name.
func (s *Schema) Has(name string) bool { return s.rels[name] != nil }

// Relations returns the relation schemas in insertion order.
func (s *Schema) Relations() []*Relation {
	out := make([]*Relation, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.rels[n])
	}
	return out
}

// ConstRelations returns the artificial relations of query constants
// (Relation.Const) in insertion order, which is the constants' slot order.
func (s *Schema) ConstRelations() []*Relation {
	var out []*Relation
	for _, n := range s.order {
		if r := s.rels[n]; r.Const != nil {
			out = append(out, r)
		}
	}
	return out
}

// Names returns the relation names in insertion order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Len returns the number of relations in the schema.
func (s *Schema) Len() int { return len(s.order) }

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{rels: make(map[string]*Relation, len(s.rels))}
	for _, name := range s.order {
		r := s.rels[name]
		nr := &Relation{
			Name:    r.Name,
			Pattern: append(AccessPattern(nil), r.Pattern...),
			Domains: append([]Domain(nil), r.Domains...),
			Const:   r.Const,
			inputs:  r.inputs,
		}
		c.rels[name] = nr
		c.order = append(c.order, name)
	}
	return c
}

// String renders the schema, one relation per line, in insertion order.
func (s *Schema) String() string {
	var b strings.Builder
	for i, n := range s.order {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(s.rels[n].String())
	}
	return b.String()
}

// QueryableRelations computes, by the domain-level fixpoint of Section II of
// the paper, the set of relations that can be accessed at least once in at
// least one database instance, starting from values of the seed domains
// (those of the constants occurring in the query). A relation becomes
// accessible when all of its input domains are obtainable; the outputs of an
// accessible relation make their domains obtainable.
func (s *Schema) QueryableRelations(seeds []Domain) map[string]bool {
	obtainable := make(map[Domain]bool, len(seeds))
	for _, d := range seeds {
		obtainable[d] = true
	}
	queryable := make(map[string]bool, len(s.rels))
	for changed := true; changed; {
		changed = false
		for _, name := range s.order {
			if queryable[name] {
				continue
			}
			r := s.rels[name]
			ok := true
			for _, d := range r.InputDomains() {
				if !obtainable[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			queryable[name] = true
			changed = true
			for _, d := range r.OutputDomains() {
				if !obtainable[d] {
					obtainable[d] = true
				}
			}
		}
	}
	return queryable
}
