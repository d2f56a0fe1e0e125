package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"toorjah/internal/cache"
	"toorjah/internal/datalog"
	"toorjah/internal/obs"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// DefaultMaxBatch is the batch size used when Options.MaxBatch is zero.
const DefaultMaxBatch = 16

// Options is the unified execution configuration of every executor in the
// package — the naive reference algorithm, the two strategies of the
// optimized executor and the concurrent union runner each read the fields
// that concern them and ignore the rest. The
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
	// cancellation) may spend up to a batch of extra accesses per in-flight
	// round trip: one already started when the stop lands completes and is
	// charged in full.
	MaxBatch int
	// Obs, when non-nil, instruments the execution: probe metrics (latency
	// and batch-size histograms, per-relation access counters) are recorded
	// below the cache — only probes that reach a source count — and the
	// execution's demanded accesses (cache hits included) are counted above
	// it, yielding the per-query cache-hit ratio. All instruments are
	// atomic; a nil Obs leaves the probe path untouched.
	Obs *obs.ExecObs

	// Parallelism is how many round trips per relation the pipelined
	// strategy keeps in flight; default 4. The other executors make one
	// round trip at a time.
	Parallelism int
	// Limit, when positive, caps the answers at exactly that many, for every
	// executor. The pipelined strategy stops the extraction as soon as they
	// have been emitted — the paper's interactive early stop ("the user can
	// stop the lengthy answering process once satisfied") — and the union
	// runner stops once the union holds that many distinct answers; naive
	// and fast-fail derive their answers at completion, so the limit cuts
	// the answer set without saving accesses, as it does for queries with
	// negated atoms, where no answer is sound until every cache is complete.
	// The result carries Truncated when work was left undone or a further
	// answer was derived and withheld; it is then a sound subset.
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

// parallelism resolves the pipelined in-flight bound (always >= 1).
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
// and reports errCancelled, so the run truncates instead of erroring. The
// extractions land in slots, which the caller owns as it owns the bindings.
func probe(ctx context.Context, w source.Wrapper, bindings [][]sym.ID, slots [][]datalog.Tuple) error {
	err := w.Probe(ctx, bindings, slots)
	if err != nil && ctxDone(ctx) {
		return errCancelled
	}
	return err
}

// instrument prepares, for one execution, the sources of the relations it
// probes — those and no others, so a run costs what its plan touches, not
// what the schema holds — and returns them with their counters, both in the
// order of relations. Each source is pinned to its current data version
// when it is versioned (the run then observes one consistent epoch per
// relation however far concurrent writers advance the tables) and wrapped
// in a fresh Counter — the per-run access accounting behind Result.Stats;
// when a cross-query cache is configured it is layered outside the counter
// (Cached(Counted(Snapshot(source)))) so cache hits bypass the counters
// entirely. Probe metrics sit inside the cache: they observe exactly the
// round trips that reach a source, in lockstep with the counters. Demand
// counting sits outside it: it sees every access the plan requested, cache
// hits included. Every relation must have a source (requireSources).
func instrument(reg *source.Registry, relations []string, opts Options) ([]source.Wrapper, []*source.Counter) {
	srcs := make([]source.Wrapper, len(relations))
	counters := make([]*source.Counter, len(relations))
	for i, name := range relations {
		w := reg.Source(name)
		if s, ok := w.(source.Snapshottable); ok {
			w = s.Snapshot()
		}
		counters[i] = source.NewCounter(w, false)
		w = opts.Obs.WrapProbe(counters[i])
		if opts.Cache != nil {
			w = opts.Cache.Wrap(w)
		}
		srcs[i] = opts.Obs.WrapDemand(w)
	}
	return srcs, counters
}

// requireSources reports the first of the named relations that has no
// source bound. Every executor calls it before its first probe, so a
// missing binding never costs an access.
func requireSources(reg *source.Registry, relations []string) error {
	for _, name := range relations {
		if reg.Source(name) == nil {
			return fmt.Errorf("exec: no source bound for relation %s", name)
		}
	}
	return nil
}
