package obs

import (
	"sync"
	"time"
)

// ProbeMetrics is a server's source-level metric families: what reached a
// source — accesses, round trips and tuples, by relation — and how long and
// how full the round trips were. They have one producer, the meter of the
// executors' access path (internal/exec), which sits below the cross-query
// cache, and one reader: /metrics renders them. Construct once per registry
// with NewProbeMetrics.
type ProbeMetrics struct {
	accesses, roundTrips, tuples *CounterVec
	duration, batchSize          *Histogram

	mu    sync.RWMutex
	byRel map[string]*RelationProbes
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
		byRel: make(map[string]*RelationProbes),
	}
}

// RelationProbes is one relation's handles into the families: resolved once
// per server (For), recorded into with atomic adds — no lock, no label
// look-up and no allocation per round trip.
type RelationProbes struct {
	accesses, roundTrips, tuples *Counter
	duration, batchSize          *Histogram
}

// For returns the relation's handles, resolving its three series the first
// time the server probes it. A nil *ProbeMetrics has none to give.
func (m *ProbeMetrics) For(rel string) *RelationProbes {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	p := m.byRel[rel]
	m.mu.RUnlock()
	if p != nil {
		return p
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p = m.byRel[rel]; p == nil {
		p = &RelationProbes{
			accesses:   m.accesses.With(rel),
			roundTrips: m.roundTrips.With(rel),
			tuples:     m.tuples.With(rel),
			duration:   m.duration,
			batchSize:  m.batchSize,
		}
		m.byRel[rel] = p
	}
	return p
}

// Record folds one round trip of n accesses into the families: its latency
// and batch size whatever the outcome, and, when it delivered, the three
// counters — which therefore sum exactly what the executions' per-run
// source.Stats report, a failed run's completed round trips included.
func (p *RelationProbes) Record(n int, elapsed time.Duration, tuples int, delivered bool) {
	p.duration.Observe(elapsed.Seconds())
	p.batchSize.Observe(float64(n))
	if delivered {
		p.accesses.Add(int64(n))
		p.roundTrips.Inc()
		p.tuples.Add(int64(tuples))
	}
}
