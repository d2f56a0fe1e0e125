// Package core wires the stages of the Toorjah pipeline together: query
// validation and typing, optional Chandra–Merlin minimization, constant
// elimination, dependency-graph construction, GFP optimization, and
// ⊂-minimal plan generation. It is the implementation behind the module's
// public API.
//
// No stage looks at what a constant holds — to the planner a constant a is
// the artificial relation ℓ_a and nothing more — so a Pipeline prepared from
// a query's shape (cq.Shape) is the pipeline of every query of that shape:
// the façade prepares shapes, caches them, and binds each query's constants
// at execution (plan.Plan.Bind). Prepared from a query as written, the
// pipeline runs as it is: its plan carries that query's constants.
package core

import (
	"toorjah/internal/cq"
	"toorjah/internal/dgraph"
	"toorjah/internal/plan"
	"toorjah/internal/schema"
)

// Options tunes Prepare.
type Options struct {
	// SkipMinimize disables the CQ-minimization preprocessing. Section IV
	// assumes a minimal CQ as planner input; minimization is exponential in
	// query size in the worst case, so callers with known-minimal queries
	// may skip it.
	SkipMinimize bool
	// SkipPruning keeps every arc of the d-graph weak (no GFP), producing
	// the unoptimized plan; used by ablation experiments.
	SkipPruning bool
	// Order tunes the linearization of the source ordering (heuristic-free;
	// see plan.OrderOptions).
	Order plan.OrderOptions
}

// Pipeline carries every artifact of query preparation.
type Pipeline struct {
	Schema *schema.Schema
	// Query is the input query after optional minimization; Typing is the
	// input query's, whose constant order is the plan's slot order.
	Query  *cq.CQ
	Typing *cq.Typing
	// Pre is the constant-free rewriting over the extended schema.
	Pre *cq.Preprocessed
	// Graph is the d-graph; Opt the optimized d-graph.
	Graph *dgraph.Graph
	Opt   *dgraph.Optimized
	// Plan is the ⊂-minimal plan; nil when the query is not answerable.
	Plan *plan.Plan
}

// Answerable reports whether every relation in the query is queryable; when
// false the answer is empty on every instance and Plan is nil.
func (p *Pipeline) Answerable() bool { return p.Graph.Answerable }

// Prepare runs the full pipeline with default options.
func Prepare(sch *schema.Schema, q *cq.CQ) (*Pipeline, error) {
	return PrepareOpts(sch, q, Options{})
}

// PrepareOpts runs the full pipeline: validate, minimize, eliminate
// constants, build the d-graph, compute the maximal solution, generate the
// plan. A non-answerable query yields a Pipeline with Plan == nil and no
// error (the empty answer needs no plan).
func PrepareOpts(sch *schema.Schema, q *cq.CQ, opts Options) (*Pipeline, error) {
	p := &Pipeline{Schema: sch}
	ty, err := cq.Validate(q, sch)
	if err != nil {
		return nil, err
	}
	// The typing of the query as written stays: minimization only drops
	// atoms, so it types what is left, and it numbers the constants the way
	// cq.Shape does — the minimized query may meet them in another order.
	p.Query, p.Typing = q, ty
	if !opts.SkipMinimize {
		if m := cq.Minimize(q); len(m.Body) < len(q.Body) {
			p.Query = m
		}
	}
	p.Pre, err = cq.EliminateConstants(p.Query, sch, ty)
	if err != nil {
		return nil, err
	}
	p.Graph, err = dgraph.Build(p.Pre.Query, p.Pre.Schema)
	if err != nil {
		return nil, err
	}
	if opts.SkipPruning {
		sol := &dgraph.Solution{
			G:       p.Graph,
			Strong:  map[int]bool{},
			Deleted: map[int]bool{},
		}
		p.Opt = p.Graph.OptimizeWith(sol)
	} else {
		p.Opt = p.Graph.Optimize()
	}
	if !p.Graph.Answerable {
		return p, nil
	}
	p.Plan, err = plan.Generate(p.Opt, opts.Order)
	if err != nil {
		return nil, err
	}
	return p, nil
}
