package toorjah

import (
	"fmt"

	"toorjah/internal/cq"
)

// UnionQuery is a prepared union of conjunctive queries (UCQ). Each
// disjunct gets its own optimized plan; execution unions the answers — the
// UCQ extension sketched in Section II of the paper (the answer to a union
// is the union of the answers to its CQs). Disjuncts are independent
// extractions over the same sources, so Execute runs them in parallel with
// bounded concurrency; with a cross-query cache configured (WithCache),
// identical probes issued by overlapping disjuncts collapse into a single
// source access, so parallelism never costs extra accesses over running
// them one at a time (Options.MaxConcurrent: -1). Execute
// pins one snapshot of the sources for the whole union, so all disjuncts —
// and therefore the union answer — evaluate over a single data version even
// while writers ingest into the relations.
type UnionQuery struct {
	sys     *System
	queries []*Query
	name    string
	arity   int
}

// PrepareUCQ parses and prepares a union of conjunctive queries, one
// disjunct per line, all sharing the head predicate and arity.
func (s *System) PrepareUCQ(text string) (*UnionQuery, error) {
	u, err := cq.ParseUCQ(text)
	if err != nil {
		return nil, err
	}
	return s.PrepareUCQFrom(u)
}

// PrepareUCQFrom is PrepareUCQ for an already-parsed union.
func (s *System) PrepareUCQFrom(u *UCQ) (*UnionQuery, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	out := &UnionQuery{sys: s, name: u.Name, arity: u.Arity()}
	for _, d := range u.Disjuncts {
		q, err := s.PrepareCQ(d)
		if err != nil {
			return nil, fmt.Errorf("disjunct %s: %w", d, err)
		}
		out.queries = append(out.queries, q)
	}
	return out, nil
}

// Disjuncts returns the prepared per-disjunct queries.
func (u *UnionQuery) Disjuncts() []*Query { return u.queries }

// Answerable reports whether at least one disjunct is answerable.
func (u *UnionQuery) Answerable() bool {
	for _, q := range u.queries {
		if q.Answerable() {
			return true
		}
	}
	return false
}
