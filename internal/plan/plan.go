// Package plan generates ⊂-minimal query plans from optimized dependency
// graphs, implementing Section IV of Calì & Martinenghi (ICDE 2008).
//
// A plan is a Datalog program with three layers:
//
//   - a cache predicate per surviving source of the optimized d-graph,
//     defined by a rule "ĉ(V̄) ← r(V̄), s₁(Vᵢ₁), …, sₙ(Vᵢₙ)" with one domain
//     predicate per input argument;
//   - domain predicates providing the values with which input arguments may
//     be bound: a disjunction (one rule per provider) of the caches behind
//     weak incoming arcs, and a conjunction (a single join rule) of the
//     caches behind strong incoming arcs;
//   - the rewritten query over the black caches, plus one fact per
//     artificial constant relation introduced by the preprocessing.
//
// Nothing in a plan depends on what a query constant holds. The constants
// are numbered — cq.EliminateConstants gives each a slot — and a plan names
// them, by slot, in Consts: that vector is what the executors seed the
// caches of the artificial relations from, and Bind swaps it. A plan
// generated from a shape (cq.Shape) is therefore the plan of every query of
// that shape, each run bound to its own constants.
//
// A finished plan is linked: beside the program it carries the tables the
// executors index by — which relation each cache accesses, which domain
// rules and which query-rule position its predicate feeds — and every rule
// an executor will run in compiled form (datalog.Compile): the domain rules
// per body position, the query rule per body position and over full
// relations, the early-failure subquery of each position group. All of it
// is immutable, so whatever compiling costs is paid once per shape and
// shared by every execution.
//
// The plan also carries the source ordering: the surviving sources are
// grouped into positions 1…k (sources on a common cyclic d-path share a
// position; weak arcs order groups non-strictly, strong arcs strictly), and
// the fast-failing executor populates group i only after an early
// non-emptiness test over groups j < i. A ∀-minimal plan exists iff this
// ordering is unique, which the plan reports.
package plan

import (
	"fmt"
	"strings"
	"sync/atomic"

	"toorjah/internal/cq"
	"toorjah/internal/datalog"
	"toorjah/internal/dgraph"
	"toorjah/internal/schema"
)

// Cache describes the cache predicate of one surviving source.
type Cache struct {
	Source *dgraph.Source
	// Pred is the cache predicate name (the paper's r̂ with occurrence).
	Pred string
	// Group is the zero-based position of the source's group in the
	// ordering.
	Group int
	// DomainPreds maps each input position of the relation to its domain
	// predicate name; parallel to Source.Rel.InputPositions().
	DomainPreds []string
	// IsConst marks caches of artificial constant relations; they are
	// populated by a fact instead of source accesses.
	IsConst bool
	// Slot is the slot of the constant an IsConst cache carries: its value
	// in an execution is Plan.Consts[Slot].
	Slot int

	// The fields below are the executors' per-plan tables, derived once by
	// Generate and immutable afterwards: a plan is shared by concurrent
	// executions.

	// Index is the cache's position in Plan.Caches.
	Index int
	// Rel is the position of the cache's relation in Plan.Relations; -1 for
	// an IsConst cache, which is never accessed.
	Rel int
	// Shared reports that another cache node of the plan accesses the same
	// relation, so an extraction made for one can serve the other.
	Shared bool
	// Feeds lists every place the cache predicate occurs in the body of a
	// domain rule: what must be re-derived, and for whom, when the cache
	// gains tuples.
	Feeds []Feed
	// QueryPos is the body position the cache predicate occupies in
	// Plan.QueryRule, -1 for white and negated-occurrence caches.
	QueryPos int
}

// Feed says that new tuples of a cache can provide new values for one input
// position of a cache node: joining them, as the delta at BodyPos, through
// the domain rule Rule derives exactly the values they contribute. Join is
// that rule compiled for that position.
type Feed struct {
	Rule    *datalog.Rule
	BodyPos int
	Join    *datalog.Compiled
	// Cache and Input name the fed input position: Plan.Caches[Cache], input
	// Input (an index into its DomainPreds).
	Cache, Input int
}

// Plan is a ⊂-minimal query plan.
type Plan struct {
	Opt *dgraph.Optimized
	// Program is the full Datalog program: cache rules, domain rules, the
	// query rule, and constant facts. Its least fixpoint over the source
	// relations is the plan's reference semantics.
	Program *datalog.Program
	// Query is the rewritten query whose body atoms range over the black
	// caches (negated atoms over negated-occurrence caches).
	Query *cq.CQ
	// QueryRule is the rule of Program that defines Query.
	QueryRule *datalog.Rule
	// The compiled forms of QueryRule and of its positive subqueries — with
	// the Feeds' joins, every program an executor runs, compiled once here
	// and shared, like the plan, by every execution. QueryJoin evaluates the
	// query over complete caches; QueryDeltas[i] joins new tuples of the
	// cache at body position i with the full caches elsewhere; GroupTests[g]
	// is the early-failure test before position group g — the boolean query
	// over the body atoms whose caches belong to earlier groups — and nil
	// where there is nothing to test.
	QueryJoin   *datalog.Compiled
	QueryDeltas []*datalog.Compiled
	GroupTests  []*datalog.Compiled
	// Caches lists one entry per surviving source, ordered by group then
	// source ID.
	Caches []*Cache
	// Relations names the relations the plan accesses, each once, in order
	// of first occurrence in Caches.
	Relations []string
	// Consts holds the query constants by slot: what an execution seeds the
	// IsConst caches with. Generate fills in the constants as the planned
	// query names them — the values themselves, unless that query is a shape,
	// whose constants are placeholders and whose plan runs through Bind.
	Consts []string
	// Groups are the position groups of sources, in execution order.
	Groups [][]*dgraph.Source
	// UniqueOrdering reports whether only one ordering of the groups was
	// possible; by Section IV this is exactly the condition under which a
	// ∀-minimal plan exists (and then this plan is it).
	UniqueOrdering bool
	// LastAnswers counts the answers of the plan's latest execution — the one
	// field executions write — for the next to size its own. Bind shares it.
	LastAnswers *atomic.Int64
}

// ForAllMinimal reports whether the plan is ∀-minimal (Section IV: the
// ⊂-minimal plan is unique iff exactly one ordering is possible).
func (p *Plan) ForAllMinimal() bool { return p.UniqueOrdering }

// Bind returns the plan with consts as its constant vector: the plan of the
// query that has consts[k] where the planned query has the constant of slot
// k. Everything else is shared with p, which is not modified.
func (p *Plan) Bind(consts []string) *Plan {
	b := *p
	b.Consts = consts
	return &b
}

// String renders the plan: ordering, the constant each artificial relation
// holds, program. The program names the constants as the planned query did;
// on a plan bound to other values the legend is where those show.
func (p *Plan) String() string {
	var b strings.Builder
	b.WriteString("ordering:")
	for i, g := range p.Groups {
		if i > 0 {
			b.WriteString(" ≺")
		}
		var labels []string
		for _, s := range g {
			labels = append(labels, s.Label())
		}
		fmt.Fprintf(&b, " {%s}", strings.Join(labels, ", "))
	}
	if len(p.Consts) > 0 {
		b.WriteString("\nconstants:")
		for _, c := range p.Caches {
			if c.IsConst {
				fmt.Fprintf(&b, " %s = ⟨%s⟩", c.Source.Rel.Name, cq.C(p.Consts[c.Slot]))
			}
		}
	}
	b.WriteString("\nprogram:\n")
	b.WriteString(p.Program.String())
	return b.String()
}

// cachePred names the cache predicate of a source: "hat_rel_1" for the
// first occurrence of rel in the query, "hat_rel_w" for a white source.
func cachePred(s *dgraph.Source) string {
	if s.Black {
		return fmt.Sprintf("hat_%s_%d", s.Rel.Name, s.Occ)
	}
	return fmt.Sprintf("hat_%s_w", s.Rel.Name)
}

// domainPred names the domain predicate feeding input position pos of the
// source's cache.
func domainPred(s *dgraph.Source, pos int) string {
	return fmt.Sprintf("s_%s_%d", cachePred(s), pos)
}

// Generate builds the ⊂-minimal plan for an optimized d-graph whose query
// is answerable, ordering its sources with ordOpts (the zero value, or the
// heuristic-free linearization of the ablation).
func Generate(o *dgraph.Optimized, ordOpts OrderOptions) (*Plan, error) {
	if !o.Graph.Answerable {
		return nil, fmt.Errorf("plan: query %s is not answerable", o.Graph.Query.Name)
	}
	groups, unique := Order(o, ordOpts)
	p := &Plan{
		Opt:            o,
		Program:        &datalog.Program{},
		Groups:         groups,
		UniqueOrdering: unique,
		LastAnswers:    new(atomic.Int64),
	}
	// The artificial relations sit in the extended schema in slot order,
	// each pointing at its constant.
	slot := make(map[*schema.Relation]int)
	for k, r := range o.Graph.Schema.ConstRelations() {
		slot[r] = k
		p.Consts = append(p.Consts, *r.Const)
	}
	// Caches in group order for deterministic output.
	for gi, g := range groups {
		for _, s := range g {
			c := &Cache{Source: s, Pred: cachePred(s), Group: gi}
			c.Slot, c.IsConst = slot[s.Rel]
			p.Caches = append(p.Caches, c)
		}
	}

	for _, c := range p.Caches {
		if c.IsConst {
			// The artificial relation ℓ_a contributes the single fact
			// ĉ(a); no access is ever made for it.
			p.Program.AddFact(c.Pred, p.Consts[c.Slot])
			continue
		}
		rel := c.Source.Rel
		// Cache rule over fresh variables: using the atom's own variables
		// would wrongly restrict the cache on self-joined atoms like
		// r(X, X); the query rule re-imposes those equalities at the end.
		vars := make([]cq.Term, rel.Arity())
		for i := range vars {
			vars[i] = cq.V(fmt.Sprintf("V%d", i+1))
		}
		rule := &datalog.Rule{Head: cq.Atom{Pred: c.Pred, Args: vars}}
		rule.Body = append(rule.Body, cq.Atom{Pred: rel.Name, Args: vars})
		for _, pos := range rel.InputPositions() {
			node := c.Source.Nodes[pos]
			strongIn := o.StrongInArcs(node)
			weakIn := o.WeakInArcs(node)
			if len(strongIn)+len(weakIn) == 0 {
				return nil, fmt.Errorf("plan: input node %s of surviving source has no live providers", node)
			}
			dp := domainPred(c.Source, pos)
			c.DomainPreds = append(c.DomainPreds, dp)
			rule.Body = append(rule.Body, cq.NewAtom(dp, vars[pos]))

			// Conjunction of strong providers: one joint rule.
			if len(strongIn) > 0 {
				join := &datalog.Rule{Head: cq.NewAtom(dp, cq.V("X"))}
				for ai, a := range strongIn {
					join.Body = append(join.Body, providerAtom(a, ai))
				}
				p.Program.Add(join)
			}
			// Disjunction of weak providers: one rule each.
			for _, a := range weakIn {
				r := &datalog.Rule{Head: cq.NewAtom(dp, cq.V("X"))}
				r.Body = append(r.Body, providerAtom(a, 0))
				p.Program.Add(r)
			}
		}
		p.Program.Add(rule)
	}

	// The rewritten query: each atom of the (constant-free) query ranges
	// over its occurrence's cache.
	q := o.Graph.Query
	rw := &cq.CQ{Name: q.Name, Head: append([]cq.Term(nil), q.Head...)}
	for _, s := range o.Graph.BlackSources() {
		atom := cq.Atom{Pred: cachePred(s), Args: append([]cq.Term(nil), s.Atom.Args...)}
		if s.Negated {
			rw.Negated = append(rw.Negated, atom)
		} else {
			rw.Body = append(rw.Body, atom)
		}
	}
	p.Query = rw
	p.QueryRule = datalog.RuleOf(rw)
	p.Program.Add(p.QueryRule)
	if err := p.Program.Validate(); err != nil {
		return nil, fmt.Errorf("plan: generated program invalid: %w", err)
	}
	if err := p.link(); err != nil {
		return nil, fmt.Errorf("plan: compiling the program: %w", err)
	}
	return p, nil
}

// link derives the executors' tables from the finished program: which
// relation each cache accesses and whether it shares it, where each cache
// predicate sits in the domain rules and in the query rule — and compiles
// the joins those places stand for.
func (p *Plan) link() (err error) {
	byPred := make(map[string]*Cache, len(p.Caches))
	fed := make(map[string]Feed) // domain predicate -> the input position it binds
	relIndex := make(map[string]int)
	occurrences := make(map[string]int)
	for ci, c := range p.Caches {
		c.Index, c.Rel, c.QueryPos = ci, -1, -1
		byPred[c.Pred] = c
		for ii, dp := range c.DomainPreds {
			fed[dp] = Feed{Cache: ci, Input: ii}
		}
		if c.IsConst {
			continue
		}
		name := c.Source.Rel.Name
		ri, ok := relIndex[name]
		if !ok {
			ri = len(p.Relations)
			relIndex[name] = ri
			p.Relations = append(p.Relations, name)
		}
		c.Rel = ri
		occurrences[name]++
	}
	for _, c := range p.Caches {
		c.Shared = !c.IsConst && occurrences[c.Source.Rel.Name] > 1
	}
	for _, r := range p.Program.Rules {
		f, ok := fed[r.Head.Pred]
		if !ok {
			continue
		}
		for bi, a := range r.Body {
			f.Rule, f.BodyPos = r, bi
			if f.Join, err = datalog.Compile(r, bi); err != nil {
				return err
			}
			c := byPred[a.Pred]
			c.Feeds = append(c.Feeds, f)
		}
	}
	if p.QueryJoin, err = datalog.Compile(p.QueryRule, -1); err != nil {
		return err
	}
	p.QueryDeltas = make([]*datalog.Compiled, len(p.QueryRule.Body))
	for bi, a := range p.QueryRule.Body {
		byPred[a.Pred].QueryPos = bi
		if p.QueryDeltas[bi], err = datalog.Compile(p.QueryRule, bi); err != nil {
			return err
		}
	}
	p.GroupTests = make([]*datalog.Compiled, len(p.Groups))
	for gi := range p.Groups {
		test := &datalog.Rule{Head: cq.Atom{Pred: "sat"}} // boolean: empty head
		for _, c := range p.Caches {
			if c.QueryPos >= 0 && c.Group < gi {
				test.Body = append(test.Body, p.QueryRule.Body[c.QueryPos])
			}
		}
		if len(test.Body) == 0 {
			continue
		}
		if p.GroupTests[gi], err = datalog.Compile(test, -1); err != nil {
			return err
		}
	}
	return nil
}

// providerAtom builds the cache atom of the provider behind arc a, with the
// shared variable X at the provider's position and fresh variables (indexed
// by k to keep joint rules collision-free) elsewhere.
func providerAtom(a *dgraph.Arc, k int) cq.Atom {
	src := a.From.Source
	args := make([]cq.Term, src.Rel.Arity())
	for i := range args {
		if i == a.From.Pos {
			args[i] = cq.V("X")
		} else {
			args[i] = cq.V(fmt.Sprintf("W%d_%d", k, i+1))
		}
	}
	return cq.Atom{Pred: cachePred(src), Args: args}
}
