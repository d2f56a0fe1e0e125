package obs

import (
	"context"
	"sync/atomic"
	"time"

	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// Source-facing instrumentation. Two decorators, sitting on opposite sides
// of the cross-query cache in the executor's stack
//
//	demand( cache( probe( counter( snapshot ))))
//
// probe (inside the cache) measures what actually reaches a source: the
// per-relation access/round-trip/tuple counters, the probe latency and
// batch-size histograms, and the "probe" trace span. demand (outside the
// cache) counts every access the plan requested, cache hits included; the
// difference between demanded and probed accesses is the query's cache-hit
// count. Both record with single atomic operations — no locks, no
// allocations per probe — so the instrumented hot path stays within noise
// of the bare one.

// ProbeMetrics is the process-wide family handles fed by every
// instrumented execution. Construct once per service with
// NewProbeMetrics.
type ProbeMetrics struct {
	accesses   *CounterVec
	roundTrips *CounterVec
	tuples     *CounterVec
	duration   *Histogram
	batchSize  *Histogram
}

// NewProbeMetrics registers the source-level metric families on r.
func NewProbeMetrics(r *Registry) *ProbeMetrics {
	return &ProbeMetrics{
		accesses: r.CounterVec("toorjah_source_accesses_total",
			"Probes that reached the source (the paper's cost metric: bindings probed), by relation.", "relation"),
		roundTrips: r.CounterVec("toorjah_source_round_trips_total",
			"Round trips to the source (batches; accesses/round trips is the mean batch size), by relation.", "relation"),
		tuples: r.CounterVec("toorjah_source_tuples_total",
			"Tuples extracted from the source, by relation.", "relation"),
		duration: r.Histogram("toorjah_probe_duration_seconds",
			"Latency of one source round trip (a batch of accesses), in seconds.", LatencyBuckets),
		batchSize: r.Histogram("toorjah_probe_batch_size",
			"Accesses folded into one source round trip.", SizeBuckets),
	}
}

// ExecObs is the per-execution observability bundle the facade hands the
// executors: the shared probe metrics (nil when /metrics is not wired) and
// this execution's demanded-access counter. A nil *ExecObs disables both
// decorators.
type ExecObs struct {
	Probe    *ProbeMetrics
	demanded atomic.Int64
}

// Demanded returns the number of accesses the plan requested so far,
// cache hits included.
func (o *ExecObs) Demanded() int {
	if o == nil {
		return 0
	}
	return int(o.demanded.Load())
}

// WrapDemand decorates w with demanded-access counting; apply it above the
// cache. Returns w unchanged when o is nil.
func (o *ExecObs) WrapDemand(w source.Wrapper) source.Wrapper {
	if o == nil {
		return w
	}
	return &demandSource{inner: w, obs: o}
}

// WrapProbe decorates w with the probe metrics and the "probe" trace span;
// apply it below the cache, above the accounting Counter. Returns w
// unchanged when o (or its ProbeMetrics) is nil.
func (o *ExecObs) WrapProbe(w source.Wrapper) source.Wrapper {
	if o == nil || o.Probe == nil {
		return w
	}
	rel := w.Relation().Name
	return &probeSource{
		inner:      w,
		accesses:   o.Probe.accesses.With(rel),
		roundTrips: o.Probe.roundTrips.With(rel),
		tuples:     o.Probe.tuples.With(rel),
		duration:   o.Probe.duration,
		batchSize:  o.Probe.batchSize,
	}
}

// probeSource records each batch that reaches the source: counters,
// latency and batch-size histograms, and a "probe" span when the context
// carries a trace.
type probeSource struct {
	inner      source.Wrapper
	accesses   *Counter
	roundTrips *Counter
	tuples     *Counter
	duration   *Histogram
	batchSize  *Histogram
}

func (p *probeSource) Relation() *schema.Relation { return p.inner.Relation() }
func (p *probeSource) Epoch() uint64              { return source.EpochOf(p.inner) }

// Probe forwards the batch and records it; the instruments are counts and
// durations, so they never need the values.
func (p *probeSource) Probe(ctx context.Context, bindings [][]sym.ID, out [][]storage.IRow) error {
	start := time.Now()
	ctx, sp := StartSpan(ctx, "probe")
	sp.SetAttr("relation", p.inner.Relation().Name)
	sp.SetAttr("accesses", len(bindings))
	err := p.inner.Probe(ctx, bindings, out)
	p.duration.Observe(time.Since(start).Seconds())
	p.batchSize.Observe(float64(len(bindings)))
	p.roundTrips.Inc()
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return err
	}
	p.accesses.Add(int64(len(bindings)))
	var tuples int64
	for _, r := range out {
		tuples += int64(len(r))
	}
	p.tuples.Add(tuples)
	sp.SetAttr("tuples", tuples)
	sp.End()
	return nil
}

// demandSource counts the accesses a plan requests, before the cache gets
// a chance to absorb them.
type demandSource struct {
	inner source.Wrapper
	obs   *ExecObs
}

func (d *demandSource) Relation() *schema.Relation { return d.inner.Relation() }
func (d *demandSource) Epoch() uint64              { return source.EpochOf(d.inner) }

// Probe counts the demanded accesses and forwards the batch.
func (d *demandSource) Probe(ctx context.Context, bindings [][]sym.ID, out [][]storage.IRow) error {
	d.obs.demanded.Add(int64(len(bindings)))
	return d.inner.Probe(ctx, bindings, out)
}
