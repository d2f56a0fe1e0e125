package toorjah

import (
	"context"

	"toorjah/internal/cq"
	"toorjah/internal/datalog"
	"toorjah/internal/exec"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// Executor selects the execution strategy of Execute.
type Executor int

const (
	// ExecutorFastFail is the fast-failing ⊂-minimal batch strategy of the
	// paper's Section IV — the default: early failure detection, access
	// deduplication, batched probes, all answers at completion.
	ExecutorFastFail Executor = iota
	// ExecutorPipelined is the parallel pipelined engine of Section V:
	// several round trips per relation are in flight at once and answers
	// stream through the OnAnswers/OnAnswer callback as each landed round
	// trip makes them derivable. Selected implicitly when a callback is given
	// without WithExecutor.
	ExecutorPipelined
	// ExecutorNaive is the reference algorithm of the paper's Fig. 1: probe
	// everything probeable until fixpoint. Kept for measurement; it answers
	// queries whose optimized plan does not exist, at maximal access cost.
	ExecutorNaive
)

// execConfig is the resolved configuration of one Execute call.
type execConfig struct {
	executor    Executor
	executorSet bool
	onBursts    func(burst []Tuple, last bool)
	opts        Options
}

// ExecOption configures one Execute call. Options apply in order;
// WithExecOptions replaces the whole executor-level block, so pass it
// first when combining it with WithLimit.
type ExecOption func(*execConfig)

// WithExecutor selects the execution strategy. The default is
// ExecutorFastFail — or ExecutorPipelined when OnAnswers or OnAnswer is
// given without an explicit executor.
func WithExecutor(e Executor) ExecOption {
	return func(c *execConfig) { c.executor, c.executorSet = e, true }
}

// WithLimit caps the answers at n. The pipelined strategy and the union
// runner stop the extraction once n answers exist — the paper's
// interactive early stop — while naive and fast-fail, which derive their
// answers at completion, cut the final answer set; either way the result
// is a sound subset carrying Truncated when answers were actually cut.
func WithLimit(n int) ExecOption {
	return func(c *execConfig) { c.opts.Limit = n }
}

// OnAnswers streams answers to f in bursts: each call carries, in the order
// they were derived, the answers derived since the last call. The engine
// calls f in three places — just before it sends a round trip to a source,
// just before it waits for one to land, and when the run finishes — so no
// answer is held back while a source is awaited, a ctx cancelled from inside
// f stops the run before its next access, and a run that ends without
// another send hands its last answers over as it finishes. Under
// ExecutorPipelined (implied when no executor is chosen) a burst is what
// the round trips landed since the last call made derivable (for queries
// without negation; with negation, one burst at completion). Under the
// other executors it is the whole answer set, once the extraction
// completes, so a sink works identically against every executor. A run that
// stops early — limit, cancellation, error — has delivered every answer
// derived before it stopped. For a UnionQuery, a burst is one disjunct's,
// less the answers the union already holds, passed on at once: f observes
// each distinct union answer exactly once. Calls are always serialized,
// never concurrent, and never empty.
//
// The slice belongs to the engine and is reused: it is valid only during
// the call (the Tuples in it stay valid — copy them out to keep them).
func OnAnswers(f func([]Tuple)) ExecOption {
	return OnBursts(func(burst []Tuple, _ bool) { f(burst) })
}

// OnBursts is OnAnswers for a consumer that acts once more after the run —
// the service writes a summary line — and wants its last burst to ride with
// that: last is set on the call the engine makes as a run finishes, and no
// call follows it. A run whose answers had all left before it finished, a
// run that fails, and a UnionQuery (a disjunct's last burst is not the
// union's) never say last.
func OnBursts(f func(burst []Tuple, last bool)) ExecOption {
	return func(c *execConfig) { c.onBursts = f }
}

// OnAnswer is OnAnswers one answer at a time: f sees every answer of every
// burst, in order.
func OnAnswer(f func(Tuple)) ExecOption {
	return OnAnswers(func(burst []Tuple) {
		for _, t := range burst {
			f(t)
		}
	})
}

// WithExecOptions sets the executor-level Options wholesale — the ablation
// switches (NoEarlyFailure, NoMetaCache), an explicit cross-query Cache,
// union parallelism (MaxConcurrent) and the rest. The escape hatch for everything the
// dedicated ExecOptions don't cover; it replaces the accumulated block, so
// order it before WithLimit.
func WithExecOptions(o Options) ExecOption {
	return func(c *execConfig) { c.opts = o }
}

// resolveExec folds the options of one Execute call.
func resolveExec(options []ExecOption) execConfig {
	var cfg execConfig
	for _, o := range options {
		if o != nil {
			o(&cfg)
		}
	}
	if !cfg.executorSet && cfg.onBursts != nil {
		cfg.executor = ExecutorPipelined
	}
	return cfg
}

// Execute runs the prepared query and returns all obtainable answers. The
// context cancels the extraction: once it is done no further probes are
// made and the run returns early with Truncated set, the answers already
// derived being a sound subset (nil means context.Background()). The
// context also carries the query's observability baggage down to the
// sources. By default the fast-failing ⊂-minimal strategy runs; options
// select another executor, cap the answers, or stream them:
//
//	res, _ := q.Execute(ctx)
//	res, _ := q.Execute(ctx, toorjah.WithLimit(10))
//	res, _ := q.Execute(ctx, toorjah.OnAnswer(func(t toorjah.Tuple) {
//	    fmt.Println(t.Strings())
//	}))
//
// The system's cross-query cache and batch bound apply unless the options
// carry their own.
func (q *Query) Execute(ctx context.Context, options ...ExecOption) (*Result, error) {
	return q.executeWith(ctx, q.sys.reg, resolveExec(options))
}

// executeWith runs one configured execution over an explicit registry (the
// union runner passes one pinned snapshot so every disjunct answers over
// the same data version).
func (q *Query) executeWith(ctx context.Context, reg *source.Registry, cfg execConfig) (*Result, error) {
	opts := q.sys.execOpts(cfg.opts)
	switch {
	case cfg.executor == ExecutorNaive:
		// The naive algorithm runs on the query itself — the shape with this
		// query's constants back in their slots — and needs no plan, so it
		// executes even when the optimized strategies would refuse.
		query := cq.Instantiate(q.pipeline.Query, q.consts)
		typing, err := cq.Validate(query, q.sys.sch)
		if err != nil {
			return nil, err
		}
		return exec.Naive(ctx, q.sys.sch, reg, query, typing, opts, cfg.onBursts)
	case !q.Answerable():
		return q.emptyResult(), nil
	case cfg.executor == ExecutorPipelined:
		return exec.Pipelined(ctx, q.pipeline.Plan.Bind(q.consts), reg, opts, cfg.onBursts)
	default:
		return exec.FastFailing(ctx, q.pipeline.Plan.Bind(q.consts), reg, opts, cfg.onBursts)
	}
}

// Execute runs every disjunct concurrently (bounded by Options.MaxConcurrent) and
// unions the answers — the UCQ semantics of the paper's Section II. The
// same options as Query.Execute apply: WithExecutor selects the strategy
// every disjunct runs, OnAnswers/OnAnswer observe each distinct union answer
// exactly once (serialized, with the burst of the first disjunct to deliver
// it), WithLimit
// caps the distinct union answers and cancels the remaining disjuncts once
// reached. One snapshot of the sources is pinned for the whole union, so
// all disjuncts answer over a single data version; per-relation statistics
// merge across disjuncts and Truncated/EarlyEmpty are OR-ed. A cancelled
// context yields a truncated sound subset, never an error.
func (u *UnionQuery) Execute(ctx context.Context, options ...ExecOption) (*Result, error) {
	cfg := resolveExec(options)
	// The cache's incarnations first, the sources second, as for one query
	// (exec.openAccess): the disjuncts wrap the cache after the sources are
	// pinned, so a rebind in between would otherwise pair a new incarnation
	// with the old source.
	if c := u.sys.execOpts(cfg.opts).Cache; c != nil {
		cfg.opts.Cache = c.Pin()
	}
	// The pinned snapshots' IDs are the union's from here on, not their
	// tables': the hold is taken before them, and the disjuncts join it.
	if ctx == nil {
		ctx = context.Background()
	}
	h := sym.Default.HoldFor(ctx)
	defer h.Release()
	ctx = sym.WithHold(ctx)
	pinned := u.sys.reg.Snapshot() // one data version for every disjunct
	if unionPinned != nil {
		unionPinned()
	}
	runs := make([]exec.DisjunctRun, len(u.queries))
	for i, q := range u.queries {
		runs[i] = func(dctx context.Context, emit func([]datalog.Tuple)) (*Result, error) {
			// Every disjunct delivers into the union. It keeps the limit for
			// itself too: the union needs at most Limit distinct answers and
			// a disjunct's own answers are distinct, so a disjunct that
			// withholds one has an answer the union lacks or has no room for.
			dc := cfg
			dc.onBursts = func(burst []datalog.Tuple, _ bool) { emit(burst) }
			return q.executeWith(dctx, pinned, dc)
		}
	}
	return exec.Union(ctx, u.name, u.arity, runs, cfg.opts, cfg.onBursts)
}

// unionPinned, when set, runs between a union's pinning of its sources and
// its disjuncts; tests rebind a relation from it.
var unionPinned func()
