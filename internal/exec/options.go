package exec

import (
	"context"
	"errors"
	"runtime"

	"toorjah/internal/cache"
	"toorjah/internal/datalog"
	"toorjah/internal/obs"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// DefaultMaxBatch is the batch size used when Options.MaxBatch is zero.
const DefaultMaxBatch = 16

// roundTripsInFlight is how many round trips per relation the pipelined
// strategy keeps in flight, each on a goroutine, when the relation's source
// can block (source.CanBlock). The round trips of a source that cannot block
// — a local table — are made on the coordinator, one at a time, as the other
// executors make all of theirs.
const roundTripsInFlight = 4

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
	// shared between executions (and between concurrent executions). It sits
	// in front of the per-run accounting, so Result.Stats then reports only
	// the probes that actually reached the sources.
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
	// Metrics, when non-nil, is the server's source-level metric families:
	// every round trip that reaches a source — below the cache, in lockstep
	// with Result.Stats — is timed and counted into them. A server sets it
	// once, for every execution; nil leaves the probe path untimed.
	Metrics *obs.ProbeMetrics

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

	// parallelism overrides roundTripsInFlight when positive. It is a test
	// hook: a failing source's derived-answer count is exact only one round
	// trip at a time.
	parallelism int
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

// inFlight resolves the pipelined in-flight bound (always >= 1).
func (o Options) inFlight() int {
	if o.parallelism > 0 {
		return o.parallelism
	}
	return roundTripsInFlight
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

// ctxDone reports whether ctx has been cancelled. It asks Err, not Done: a
// cancelable context makes its Done channel on the first call, and a run
// that is never cancelled need not.
func ctxDone(ctx context.Context) bool { return ctx.Err() != nil }

// errCancelled aborts an extraction from deep inside the probe loops when
// the context is done; the executors translate it into a truncated result
// rather than an error.
var errCancelled = errors.New("exec: extraction cancelled")

// probe is the executors' one call into a source. A probe that fails once
// its context is done failed because of the cancellation — a round trip cut
// off mid-flight, an abandoned wait on another query's in-flight access —
// and reports errCancelled, so the run truncates instead of erroring. The
// extractions land in slots, which the caller owns as it owns the block of
// bindings.
func probe(ctx context.Context, w source.Wrapper, ids []sym.ID, slots [][]datalog.Tuple) error {
	err := w.Probe(ctx, ids, slots)
	if err != nil && ctxDone(ctx) {
		return errCancelled
	}
	return err
}
