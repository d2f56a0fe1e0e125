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
// opens the relations once for the whole union, so all disjuncts — and
// therefore the union answer — evaluate over a single data version even
// while writers ingest into the relations.
type UnionQuery struct {
	sys     *System
	queries []*Query
	name    string
	arity   int
	// A union of one — a CQ, the common case — is one allocation.
	one   [1]*Query
	first Query
}

// PrepareUCQ parses (cq.ParseUCQ) and prepares a union of conjunctive
// queries; a text of one disjunct is a CQ, and fails as Prepare fails.
func (s *System) PrepareUCQ(text string) (*UnionQuery, error) {
	u, err := cq.ParseUCQ(text) // validates the union
	if err != nil {
		return nil, err
	}
	return s.prepareUnion(u)
}

// PrepareUCQFrom is PrepareUCQ for an already-parsed union.
func (s *System) PrepareUCQFrom(u *UCQ) (*UnionQuery, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return s.prepareUnion(u)
}

// prepareUnion prepares each disjunct of a validated union.
func (s *System) prepareUnion(u *UCQ) (*UnionQuery, error) {
	out := &UnionQuery{sys: s, name: u.Name, arity: u.Arity()}
	out.one[0], out.queries = &out.first, out.one[:]
	for i, d := range u.Disjuncts {
		q := &out.first
		if i > 0 {
			q = new(Query)
			out.queries = append(out.queries, q)
		}
		err := s.prepareCQ(d, q)
		if err != nil && len(u.Disjuncts) > 1 {
			err = fmt.Errorf("disjunct %s: %w", d, err)
		}
		if err != nil {
			return nil, err
		}
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
