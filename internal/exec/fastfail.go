package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"toorjah/internal/cache"
	"toorjah/internal/cq"
	"toorjah/internal/datalog"
	"toorjah/internal/obs"
	"toorjah/internal/plan"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// DefaultMaxBatch is the batch size used when Options.MaxBatch is zero.
const DefaultMaxBatch = 16

// Options is the unified execution configuration of every executor in the
// package — the fast-failing batch strategy, the naive reference
// algorithm, the parallel pipelined engine and the concurrent union
// runner each read the fields that concern them and ignore the rest. The
// zero value is the paper's fast-failing defaults: batching at
// DefaultMaxBatch, no answer limit, full parallelism for unions.
// Cancellation is not configured here: every executor takes a
// context.Context as its first parameter — once the context is done no
// further probes are made and the run returns early with Truncated set
// (the answers already derivable are a sound subset for positive queries;
// queries with negated atoms return none, since no answer is sound until
// every cache is complete). The context also carries the query's
// observability baggage (trace ID, current span) down to the sources.
type Options struct {
	// NoEarlyFailure disables the per-group non-emptiness test.
	NoEarlyFailure bool
	// NoMetaCache disables cross-occurrence access sharing: repeated probes
	// of the same relation binding hit the source again.
	NoMetaCache bool
	// Cache, when set, serves accesses through a cross-query access cache
	// shared between executions (and between concurrent executions). The
	// cache is layered outside the per-run counters, so Result.Stats then
	// reports only the probes that actually reached the sources.
	Cache *cache.Cache
	// MaxBatch caps how many access bindings are folded into one source
	// round trip (one Wrapper.Probe call). 0 means DefaultMaxBatch; negative
	// (or 1) disables batching — one round trip per access. For a run that
	// completes, batching never changes the answer set or the access count:
	// a batch of N bindings is exactly N accesses under the paper's cost
	// model, it only amortises the per-probe overhead (Result.Stats reports
	// round trips as Batches). A truncated pipelined run (answer limit or
	// cancellation) may spend up to a batch of extra accesses per worker:
	// a batch already in flight when the stop lands completes as one round
	// trip and is charged in full.
	MaxBatch int
	// Obs, when non-nil, instruments the execution: probe metrics (latency
	// and batch-size histograms, per-relation access counters) are recorded
	// below the cache — only probes that reach a source count — and the
	// execution's demanded accesses (cache hits included) are counted above
	// it, yielding the per-query cache-hit ratio. All instruments are
	// atomic; a nil Obs leaves the probe path untouched.
	Obs *obs.ExecObs

	// QueueLen is the pipelined engine's per-wrapper access queue capacity
	// (paper Fig. 5); default 32. Ignored by the batch strategies.
	QueueLen int
	// Parallelism is the pipelined engine's concurrent probes per relation;
	// default 4. Ignored by the batch strategies.
	Parallelism int
	// Limit, when positive, caps the answers at exactly that many: the
	// pipelined engine stops the extraction as soon as they have been
	// emitted — the paper's interactive early stop ("the user can stop the
	// lengthy answering process once satisfied") — and the union runner
	// stops once the union holds that many distinct answers. The result
	// carries Truncated when work was left undone or a further answer was
	// derived and withheld; it is then a sound subset. For queries with
	// negated atoms no answer is sound until every cache is complete, so
	// the limit cannot save accesses there; it still caps the answers
	// returned.
	Limit int
	// MaxConcurrent bounds how many union disjuncts execute at once; 0
	// means runtime.GOMAXPROCS(0), negative means one at a time. Ignored
	// outside the union runner.
	MaxConcurrent int
}

// maxBatch resolves the effective batch bound (always >= 1).
func (o Options) maxBatch() int {
	if o.MaxBatch == 0 {
		return DefaultMaxBatch
	}
	if o.MaxBatch < 1 {
		return 1
	}
	return o.MaxBatch
}

// queueLen and parallelism resolve the pipelined defaults.
func (o Options) queueLen() int {
	if o.QueueLen <= 0 {
		return 32
	}
	return o.QueueLen
}

func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return 4
	}
	return o.Parallelism
}

// maxConcurrent resolves the effective disjunct parallelism (always >= 1).
func (o Options) maxConcurrent() int {
	if o.MaxConcurrent == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.MaxConcurrent < 1 {
		return 1
	}
	return o.MaxConcurrent
}

// ctxDone reports whether ctx has been cancelled.
func ctxDone(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// errCancelled aborts an extraction from deep inside the probe loops when
// the context is done; the executors translate it into a truncated result
// rather than an error.
var errCancelled = errors.New("exec: extraction cancelled")

// probe is the executors' one call into a source. A probe that fails once
// its context is done failed because of the cancellation — a round trip cut
// off mid-flight, an abandoned wait on another query's in-flight access —
// and reports errCancelled, so the run truncates instead of erroring.
func probe(ctx context.Context, w source.Wrapper, bindings [][]sym.ID) ([][]datalog.Tuple, error) {
	rows, err := w.Probe(ctx, bindings)
	if err != nil && ctxDone(ctx) {
		return nil, errCancelled
	}
	return rows, err
}

// instrument prepares the registry for one execution: it pins every
// versioned source to its current data version (Registry.Snapshot — the
// run then observes one consistent epoch per relation however far
// concurrent writers advance the tables), wraps every source in a fresh
// Counter — the per-run access accounting behind Result.Stats — and, when
// a cross-query cache is configured, layers the cache outside the counters
// (Cached(Counted(Snapshot(source)))) so cache hits bypass the counters
// entirely.
func instrument(reg *source.Registry, opts Options) (*source.Registry, map[string]*source.Counter) {
	counted, counters := reg.Snapshot().Counted(false)
	if opts.Obs != nil {
		// Probe metrics sit inside the cache: they observe exactly the
		// round trips that reach a source, in lockstep with the counters.
		counted = rewrap(counted, opts.Obs.WrapProbe)
	}
	if opts.Cache != nil {
		counted = opts.Cache.WrapRegistry(counted)
	}
	if opts.Obs != nil {
		// Demand counting sits outside the cache: it sees every access the
		// plan requested, cache hits included.
		counted = rewrap(counted, opts.Obs.WrapDemand)
	}
	return counted, counters
}

// rewrap maps a decorator over every source of a registry.
func rewrap(reg *source.Registry, wrap func(source.Wrapper) source.Wrapper) *source.Registry {
	out := source.NewRegistry()
	for _, name := range reg.Names() {
		out.Bind(wrap(reg.Source(name)))
	}
	return out
}

// FastFailing executes a ⊂-minimal plan with the fast-failing strategy of
// Section IV: for each position group, in order, it first checks that the
// subquery over the already-populated caches is satisfiable (otherwise the
// answer is empty and execution stops), then populates the group's caches
// to a fixpoint, generating access bindings from the domain predicates and
// never repeating an access to a relation; finally it evaluates the
// rewritten query over the caches.
func FastFailing(ctx context.Context, p *plan.Plan, reg *source.Registry) (*Result, error) {
	return FastFailingOpts(ctx, p, reg, Options{})
}

// FastFailingOpts is FastFailing with ablation options.
func FastFailingOpts(ctx context.Context, p *plan.Plan, reg *source.Registry, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	counted, counters := instrument(reg, opts)
	sc := getScratch()
	defer sc.release()
	st, err := newGroupState(p, counted, opts, sc)
	if err != nil {
		return nil, err
	}

	for gi := range p.Groups {
		gctx, gsp := obs.StartSpan(ctx, "group")
		gsp.SetAttr("group", gi)
		if !opts.NoEarlyFailure && gi > 0 {
			sat, err := st.subquerySatisfiable(gi)
			if err != nil {
				gsp.End()
				return nil, err
			}
			if !sat {
				gsp.SetAttr("early_empty", true)
				gsp.End()
				answers := datalog.NewRelation(p.Query.Name, len(p.Query.Head))
				return &Result{
					Answers:    answers,
					Stats:      statsOf(counters),
					EarlyEmpty: true,
					Elapsed:    time.Since(start),
				}, nil
			}
		}
		err := st.populateGroup(gctx, gi)
		gsp.End()
		if err != nil {
			if errors.Is(err, errCancelled) {
				return truncatedResult(p.Query, st.cdb, counters, start)
			}
			return nil, err
		}
	}

	answers, err := datalog.EvalQuery(p.Query, st.cdb)
	if err != nil {
		return nil, fmt.Errorf("fast-failing: final evaluation: %w", err)
	}
	res := &Result{
		Answers: answers,
		Stats:   statsOf(counters),
		Elapsed: time.Since(start),
	}
	if answers.Len() > 0 {
		// Batch strategy: the first answer becomes available with the final
		// evaluation, so TimeToFirst coincides with it — recorded so every
		// executor feeds the latency histograms uniformly.
		res.TimeToFirst = res.Elapsed
	}
	return res, nil
}

// groupState holds the cache database and bookkeeping shared by the
// sequential and pipelined executors.
type groupState struct {
	p    *plan.Plan
	reg  *source.Registry
	opts Options
	sc   *scratch // the run's recycled working memory; owned by the executor

	cdb   datalog.DB   // cache predicate relations
	enums []*enumState // per cache node (nil for constants): its input domains
	// meta holds, per relation of the plan, the meta-cache: the map through
	// which the occurrences of a relation share access results, so that no
	// binding is probed twice however many cache nodes ask for it. An entry
	// is nil — which callers treat as "never hits, never stores" — when the
	// meta-cache is disabled, and for a relation with a single occurrence:
	// its node's enumerator already visits every binding once, so nobody
	// would ever read what was stored.
	meta []*sym.BindMap[[]datalog.Tuple]
}

// newGroupState sets an execution up: empty cache relations and input
// domains, then the query constants, whose caches seed the domains they
// feed once and for all.
func newGroupState(p *plan.Plan, reg *source.Registry, opts Options, sc *scratch) (*groupState, error) {
	st := &groupState{
		p:     p,
		reg:   reg,
		opts:  opts,
		sc:    sc,
		cdb:   make(datalog.DB, len(p.Caches)),
		enums: make([]*enumState, len(p.Caches)),
		meta:  make([]*sym.BindMap[[]datalog.Tuple], len(p.Relations)),
	}
	for _, c := range p.Caches {
		st.cdb[c.Pred] = sc.relation(c.Pred, c.Source.Rel.Arity())
		if c.IsConst {
			continue
		}
		st.enums[c.Index] = sc.enum(len(c.DomainPreds))
		if c.Shared && !opts.NoMetaCache {
			st.meta[c.Rel] = bindMapFor(sc.meta, c.Source.Rel.Name)
		}
	}
	for _, c := range p.Caches {
		if !c.IsConst {
			continue
		}
		// Query constants intern here — the last string boundary on the way
		// into an execution.
		if _, err := st.ingest(c, []datalog.Tuple{{sym.Intern(c.ConstValue)}}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// ingest folds one extraction into cache c — the one way tuples enter the
// cache database — and returns the tuples that were new to it (valid until
// the next call). The domains are maintained from that delta: every domain
// rule mentioning the cache predicate is joined with the new tuples at that
// body position and the full caches elsewhere, and the values derived go,
// unless already known, to the fresh pool of the input position the domain
// binds. No rule is ever evaluated over tuples it has already seen.
func (st *groupState) ingest(c *plan.Cache, rows []datalog.Tuple) ([]datalog.Tuple, error) {
	crel := st.cdb[c.Pred]
	fresh := st.sc.fresh[:0]
	for _, row := range rows {
		if crel.Insert(row) {
			fresh = append(fresh, row)
		}
	}
	st.sc.fresh = fresh
	if len(fresh) == 0 {
		return nil, nil
	}
	for _, f := range c.Feeds {
		derived, err := datalog.EvalRuleWithDelta(f.Rule, st.cdb, fresh, f.BodyPos)
		if err != nil {
			return nil, err
		}
		p := &st.enums[f.Cache].pos[f.Input]
		for _, t := range derived {
			p.add(t[0])
		}
	}
	return fresh, nil
}

// populateGroup brings the caches of one position group to their fixpoint.
// Each new binding derived from the domain predicates is probed (through
// the meta-cache) and the extraction is added to the occurrence's cache.
func (st *groupState) populateGroup(ctx context.Context, gi int) error {
	for changed := true; changed; {
		changed = false
		for _, c := range st.p.Caches {
			if c.Group != gi || c.IsConst {
				continue
			}
			added, err := st.populateCacheOnce(ctx, c)
			if err != nil {
				return err
			}
			changed = changed || added
		}
	}
	return nil
}

// populateCacheOnce performs one pass over the candidate bindings of one
// cache; it reports whether any new probe was made or tuple extracted. The
// pass first enumerates its untried bindings into the scratch arena
// (meta-cache hits are folded in on the spot, without a probe) and then
// probes the arena in batches of at most Options.MaxBatch, so a pass that
// generates N fresh bindings costs ceil(N/MaxBatch) source round trips
// instead of N.
func (st *groupState) populateCacheOnce(ctx context.Context, c *plan.Cache) (bool, error) {
	rel := c.Source.Rel
	w := st.reg.Source(rel.Name)
	if w == nil {
		return false, fmt.Errorf("exec: no source bound for relation %s", rel.Name)
	}

	// Enumerate the pass's new bindings in the canonical order (the
	// semi-naive enumerator guarantees each reaches here exactly once).
	rm := st.meta[c.Rel]
	sc := st.sc
	sc.arena = sc.arena[:0]
	toProbe := 0
	changed, err := st.newBindings(c, func(binding []sym.ID) error {
		if rm != nil {
			if rows, hit := rm.Get(binding); hit {
				_, err := st.ingest(c, rows)
				return err
			}
		}
		sc.arena = append(sc.arena, binding...)
		toProbe++
		return nil
	})
	if err != nil {
		return false, err
	}

	// The pass's binding count is known before its first probe: size the
	// meta-cache for it once, so storing the extractions (for the other
	// occurrences of the relation to reuse) never grows the map.
	width := len(c.DomainPreds)
	if rm != nil {
		rm.Reserve(width, toProbe)
	}
	err = sc.probeArena(ctx, w, width, toProbe, st.opts.maxBatch(), func(binding []sym.ID, rows []datalog.Tuple) error {
		if rm != nil {
			rm.Put(binding, rows)
		}
		_, err := st.ingest(c, rows)
		return err
	})
	return changed, err
}

// truncatedResult builds the result of a cancelled sequential run: the
// answers derivable from the tuples extracted so far for positive queries
// (each is a real answer — the caches only ever hold true tuples), none for
// queries with negation, where no answer is sound before completion.
func truncatedResult(q *cq.CQ, cdb datalog.DB, counters map[string]*source.Counter, start time.Time) (*Result, error) {
	answers := datalog.NewRelation(q.Name, len(q.Head))
	if len(q.Negated) == 0 {
		full, err := datalog.EvalQuery(q, cdb)
		if err != nil {
			return nil, fmt.Errorf("truncated evaluation: %w", err)
		}
		answers = full
	}
	res := &Result{
		Answers:   answers,
		Stats:     statsOf(counters),
		Truncated: true,
		Elapsed:   time.Since(start),
	}
	if answers.Len() > 0 {
		res.TimeToFirst = res.Elapsed // first available with the evaluation
	}
	return res, nil
}

// subquerySatisfiable runs the early non-emptiness test before populating
// group gi: the positive subquery restricted to the atoms whose caches
// belong to groups j < gi must have at least one satisfying assignment.
func (st *groupState) subquerySatisfiable(gi int) (bool, error) {
	var body []cq.Atom
	for _, c := range st.p.Caches {
		if c.QueryPos >= 0 && c.Group < gi {
			body = append(body, st.p.Query.Body[c.QueryPos])
		}
	}
	if len(body) == 0 {
		return true, nil
	}
	sub := &cq.CQ{Name: "sat", Body: body} // boolean query: empty head
	ans, err := datalog.EvalQuery(sub, st.cdb)
	if err != nil {
		return false, fmt.Errorf("early test before group %d: %w", gi, err)
	}
	return ans.Len() > 0, nil
}
