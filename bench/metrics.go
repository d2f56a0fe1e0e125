package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists what a caller of the system sees when the host leaves the
// program alone (see fastCount). Every workload reports every one of them,
// and none is ever zero; BENCHMARK.json carries the same list with the
// regress bounds (TestBenchmarkJSONMatchesCode pins the two together).
var endToEnd = []metricDef{
	{"query_fast_ms", "ms"},
	{"first_answer_fast_ms", "ms"},
	{"query_fast_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the single-layer metrics of the traced run. A metric that
// does not apply to a workload is reported as 0 there.
var perLayer = []metricDef{
	// What the issue wanted end to end but the run contract cannot carry
	// there: they apply to one workload only, or are zero when all is well.
	{"accesses_per_query", "count"},
	{"failed_frac", "frac"},
	// Whole-phase figures: on a shared host they move by tens of percent
	// between identical runs, so they carry no bound.
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_per_s", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"ingest_rows_per_s", "1/s"},
	{"recover_s", "s"},

	{"cq.parse_us", "us"},
	{"core.prepare_us.point", "us"},
	{"core.prepare_us.q3", "us"},

	{"service.handler_us_p50", "us"},
	{"service.self_us_p50", "us"},
	{"service.net_us_p50", "us"},
	{"service.resp_bytes_per_query", "B"},
	{"service.ingest_handler_us_p50", "us"},
	{"service.ingest_decode_us_p50", "us"},

	{"exec.self_us_per_query", "us"},
	{"exec.pipelined_q2_ms", "ms"},
	{"exec.naive_q2_ms", "ms"},
	{"exec.naive_q2_accesses", "count"},

	{"cache.hit_frac", "frac"},
	{"cache.lookup_us_per_query", "us"},
	{"cache.lookups_per_query", "count"},
	{"cache.evictions_per_query", "count"},
	{"cache.coalesced_per_query", "count"},
	{"cache.get_ns_per_access", "ns"},
	{"cache.put_ns_per_access", "ns"},

	{"source.accesses_per_query", "count"},
	{"source.round_trips_per_query", "count"},
	{"source.batch_fill", "count"},
	{"source.probe_us_per_query", "us"},

	{"storage.select_ns_per_binding", "ns"},
	{"storage.insert_us_per_batch64", "us"},
	{"storage.delete_us_per_batch64", "us"},

	{"sym.intern_ns", "ns"},
	{"sym.lookup_ns", "ns"},
	{"sym.table_values_end", "count"},

	{"remote.round_trips_per_query", "count"},
	{"remote.probe_us_per_rt", "us"},
	{"remote.peer_handler_us_p50", "us"},
	{"remote.wire_us_per_rt", "us"},
	{"remote.retries", "count"},

	{"wal.appends_per_ingest", "count"},
	{"wal.fsyncs_per_ingest", "count"},
	{"wal.bytes_per_row_byte", "frac"},
	{"wal.segments_sealed", "count"},
	{"wal.append_us_per_batch64.always", "us"},
	{"wal.append_us_per_batch64.never", "us"},
	{"wal.replay_us_per_record", "us"},

	{"runtime.alloc_kb_per_op", "kB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.heap_inuse_mb_end", "MB"},
	{"runtime.goroutines_end", "count"},

	{"trace.overhead_frac", "frac"},
	{"trace.self_sum_frac", "frac"},
}

// percentile is the exact nearest-rank percentile of sorted (ascending)
// samples: the smallest value with at least p percent of the samples at or
// below it. It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above the nearest-rank percentile's
// position: a tail percentile is trusted only with at least ten of them.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// sortedCopy returns the samples in ascending order, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank p50 of unsorted samples.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// fastCount is how many of a run's samples its end-to-end timings are taken
// from: the five fastest, averaged. The sandbox is a few cores of a shared
// host whose neighbours contend for cache, memory and the cores themselves;
// that noise is one-sided — it only ever slows an operation down — comes in
// bursts from milliseconds to tens of minutes long, and moves the median of
// an operation by 40–100% between identical runs, its five fastest
// executions by 5–20%. The fastest executions are what the code costs when
// nothing interferes, which is what a change to the code moves.
const fastCount = 5

// fastMean is the mean of the fastCount fastest samples (of all of them when
// there are fewer). It returns 0 for no samples.
func fastMean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := sortedCopy(samples)
	n := min(fastCount, len(sorted))
	sum := 0.0
	for _, x := range sorted[:n] {
		sum += x
	}
	return sum / float64(n)
}

// gapsMS are the times between consecutive query completions, in
// milliseconds: what one round of the closed loop takes, everything the
// client does between two queries (on ingest-rw, an ingest) included.
func gapsMS(endAtS []float64) []float64 {
	ends := sortedCopy(endAtS)
	gaps := make([]float64, 0, len(ends))
	for i := 1; i < len(ends); i++ {
		gaps = append(gaps, (ends[i]-ends[i-1])*1000)
	}
	return gaps
}

// ratio is a/b, or 0 when b is 0 (a per-query count on a run that timed no
// query is absent, and absent reads as 0 in this benchmark).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
