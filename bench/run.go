package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"toorjah/internal/sym"
)

// runConfig is one invocation's knobs.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool // ~1% sizes and bounded operation counts, for the tests
	outDir  string
}

// workload is one named traffic mix. setup builds its data and servers from
// the seed; mw0 and mw1 are the span-recording middlewares of node0 and
// node1 in a traced run, nil otherwise.
type workload struct {
	name  string
	why   string
	setup func(cfg runConfig, mw0, mw1 *middleware) (*instance, error)
}

// instance is a set-up workload, ready to take operations.
type instance struct {
	node0 *node // nil on the library path

	// warm runs the untimed operations that bring caches, plans and ingest
	// windows to their steady state.
	warm func(ctx context.Context, cl *client) error
	// op runs cl's next operation and records it in cl.rec. With tr set the
	// operation is traced and its span tree appended to tr.
	op func(ctx context.Context, cl *client, tr *tracer)
	// finish runs after the last operation: end-of-run checks (recovery)
	// and the metrics only they can give. May be nil.
	finish func(ctx context.Context) (map[string]float64, error)
	// direct times calls straight into single layers (traced runs only).
	direct func() (map[string]float64, error)
	// close stops servers and removes temporary files.
	close func()

	// maxOps bounds the operations per phase; 0 means until the phase's
	// deadline. Quick runs set it so they stay small on any machine.
	maxOps int
	// rssOps is the timed operation after which peak_rss_mb is read: a
	// fixed count, about a third of what a calm run completes, because memory
	// that grows with every operation (the symbol table under ingest)
	// would otherwise read higher the faster the code is.
	rssOps int
}

// tracer holds the traced phase's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	ops    []opTrace
	// Latencies of the phase's operations, split by whether each was
	// traced: the phase alternates, so the two see the same cache state.
	tracedMS, plainMS []float64
	// Handler-side samples the middleware gave, by request kind.
	handlerUS, selfUS, netUS  []float64
	ingestHandlerUS, decodeUS []float64
	peerUS                    []float64
	respBytes                 float64
	queries                   int
}

func (t *tracer) us(at time.Time) float64 { return us(at.Sub(t.origin)) }

// result is what one run reports.
type result struct {
	attempted, failed int
	failure           string // the first failure's reason
	metrics           map[string]float64
	notes             []string
}

// count adds a recorder's attempted and failed operations to the run's.
func (r *result) count(rec *recorder) {
	r.attempted += rec.attempted
	r.failed += rec.failed
	if r.failure == "" {
		r.failure = rec.failure
	}
}

// runPhase drives the client's closed loop until the deadline (or maxOps)
// and returns the wall-clock time the phase took and the resident-set
// high-water mark read when the phase's rssOps-th operation completed (read
// at the end of a phase too short to get there).
func runPhase(ctx context.Context, inst *instance, cl *client, d time.Duration, tr *tracer) (time.Duration, float64) {
	start := time.Now()
	deadline := start.Add(d)
	rss := 0.0
	for n := 1; time.Now().Before(deadline) && (inst.maxOps == 0 || n <= inst.maxOps); n++ {
		inst.op(ctx, cl, tr)
		if n == inst.rssOps {
			rss = peakRSSMB()
		}
	}
	if rss == 0 {
		rss = peakRSSMB()
	}
	return time.Since(start), rss
}

// Set-up is repeated, half of setupBudget before the warm-up and half after
// the timed phase — a quarter of a minute apart, so that one busy stretch of
// the host does not cover every repetition — and setup_s is the fastest
// repetition: building the tables is the most allocation-heavy thing a run
// does, and its time moves by 50% between a calm and a busy minute.
const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = 8 * time.Second
)

// timeSetups sets the workload up again and again — at least minSetups
// times, then until budget is spent or maxSetups is reached (a set-up of
// under a millisecond needs many repetitions before its figure holds still);
// once, with no budget — and returns the last instance and the seconds each
// set-up took. The earlier instances are closed and collected first, so the
// process holds one at a time and not a pile of them.
func timeSetups(w workload, cfg runConfig, mw0, mw1 *middleware, budget time.Duration) (*instance, []float64, error) {
	var inst *instance
	var took []float64
	begin := time.Now()
	for i := 0; i < maxSetups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg, mw0, mw1); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
		if budget == 0 || (i+1 >= minSetups && time.Since(begin) >= budget) {
			break
		}
	}
	return inst, took, nil
}

// runWorkload is one whole run: set-up, warm-up, the timed phase, the
// end-of-run checks and — in a traced run — the traced phase and the
// direct-call measurements.
func runWorkload(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	var mw0, mw1 *middleware
	if cfg.trace {
		mw0, mw1 = newMiddleware(), newMiddleware()
	}
	budget := setupBudget / 2
	if cfg.trace || cfg.quick {
		budget = 0 // one set-up: setup_s is an untraced run's metric
	}
	inst, setups, err := timeSetups(w, cfg, mw0, mw1, budget)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	res := &result{metrics: map[string]float64{}}
	m := res.metrics

	cl := newClient(cfg.seed)
	defer cl.close()
	if err := inst.warm(ctx, cl); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.count(cl.rec) // warm-up operations are checked, not timed

	// The timed phase. A traced run spends part of its seconds here too:
	// the counts of the per-layer metrics are deltas over this phase.
	timed := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		timed = timed * 4 / 10
	}
	scrapeHC := &http.Client{}
	defer scrapeHC.CloseIdleConnections()
	before, err := takeCounters(ctx, scrapeHC, inst)
	if err != nil {
		return nil, err
	}
	rec := &recorder{origin: time.Now()}
	cl.rec = rec
	wall, rss := runPhase(ctx, inst, cl, timed, nil)
	after, err := takeCounters(ctx, scrapeHC, inst)
	if err != nil {
		return nil, err
	}
	res.count(rec)
	if len(rec.queryMS) < 2 {
		return nil, fmt.Errorf("the timed phase completed %d queries, too few to measure (first failure: %s)", len(rec.queryMS), res.failure)
	}
	m["query_fast_ms"] = fastMean(rec.queryMS)
	m["first_answer_fast_ms"] = fastMean(rec.firstMS)
	m["query_fast_per_s"] = 1000 / fastMean(gapsMS(rec.queryAtS))
	m["peak_rss_mb"] = rss
	sorted := sortedCopy(rec.queryMS)
	res.notes = append(res.notes, fmt.Sprintf(
		"%d timed queries in %.2fs, the fastest %d averaged; whole phase: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms (%d samples beyond it), %.2f queries/s",
		len(sorted), wall.Seconds(), min(fastCount, len(sorted)),
		percentile(sorted, 50), percentile(sorted, 90), percentile(sorted, 99), beyond(len(sorted), 99), float64(len(sorted))/wall.Seconds()))

	var tr *tracer
	if cfg.trace {
		layerCounts(m, rec, before, after, wall)
		tr = &tracer{origin: time.Now()}
		mw0.on.Store(true)
		mw1.on.Store(true)
		cl.rec = &recorder{}
		_, _ = runPhase(ctx, inst, cl, time.Duration(cfg.seconds*0.3*float64(time.Second)), tr)
		mw0.on.Store(false)
		mw1.on.Store(false)
		res.count(cl.rec)
		layerTimes(m, tr)
	}

	if budget > 0 {
		again, more, err := timeSetups(w, cfg, nil, nil, budget)
		if err != nil {
			return nil, err
		}
		again.close()
		setups = append(setups, more...)
	}
	m["setup_s"] = slices.Min(setups)

	if inst.finish != nil {
		extra, err := inst.finish(ctx)
		if err != nil { // a failed end-of-run check is a failed operation
			res.count(&recorder{attempted: 1, failed: 1, failure: err.Error()})
		}
		for k, v := range extra {
			m[k] = v
		}
	}
	if cfg.trace {
		extra, err := inst.direct()
		if err != nil {
			return nil, fmt.Errorf("direct calls: %w", err)
		}
		for k, v := range extra {
			m[k] = v
		}
		m["sym.table_values_end"] = float64(sym.Default.Len())
		path, err := writeTrace(cfg.outDir, w.name, tr.ops)
		if err != nil {
			return nil, err
		}
		res.notes = append(res.notes, fmt.Sprintf("%d traced operations, spans in %s", len(tr.ops), path))
	}

	m["failed_frac"] = ratio(float64(res.failed), float64(res.attempted))
	return res, nil
}

// counters is a point-in-time reading of everything the per-layer counts
// are deltas of: node0's /metrics and the Go runtime's own accounting.
type counters struct {
	prom   map[string]float64
	mem    runtime.MemStats
	gcCPU  float64 // seconds
	allCPU float64
}

func takeCounters(ctx context.Context, hc *http.Client, inst *instance) (counters, error) {
	var c counters
	if inst.node0 != nil {
		var err error
		if c.prom, err = scrape(ctx, hc, inst.node0.url); err != nil {
			return c, err
		}
	}
	runtime.ReadMemStats(&c.mem)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.allCPU = samples[1].Value.Float64()
	}
	return c, nil
}

// layerCounts derives the count-based per-layer metrics from the deltas over
// the untraced timed phase. The runtime numbers are the whole process's:
// the client, both nodes and the Go runtime share it.
func layerCounts(m map[string]float64, rec *recorder, before, after counters, wall time.Duration) {
	d := func(name string) float64 { return after.prom[name] - before.prom[name] } // absent reads as 0
	queries := float64(len(rec.queryMS))
	ingests := float64(len(rec.ingestMS))
	ops := queries + ingests

	m["accesses_per_query"] = ratio(float64(rec.accesses), queries)
	sorted := sortedCopy(rec.queryMS)
	m["query_p50_ms"] = percentile(sorted, 50)
	m["query_p90_ms"] = percentile(sorted, 90)
	m["query_p99_ms"] = percentile(sorted, 99)
	m["query_per_s"] = queries / wall.Seconds()
	if ingests > 0 {
		in := sortedCopy(rec.ingestMS)
		m["ingest_p50_ms"] = percentile(in, 50)
		m["ingest_p99_ms"] = percentile(in, 99)
		m["ingest_rows_per_s"] = float64(rec.rows) / wall.Seconds()
	}

	hits, misses, coalesced := d("toorjah_cache_hits_total"), d("toorjah_cache_misses_total"), d("toorjah_cache_coalesced_total")
	m["cache.hit_frac"] = ratio(hits, hits+misses+coalesced)
	m["cache.lookups_per_query"] = ratio(hits+misses+coalesced, queries)
	m["cache.evictions_per_query"] = ratio(d("toorjah_cache_evictions_total"), queries)
	m["cache.coalesced_per_query"] = ratio(coalesced, queries)

	if after.prom != nil {
		acc, rts := d("toorjah_source_accesses_total"), d("toorjah_source_round_trips_total")
		m["source.accesses_per_query"] = ratio(acc, queries)
		m["source.round_trips_per_query"] = ratio(rts, queries)
		m["source.batch_fill"] = ratio(acc, rts)
	} else { // the library path has no /metrics; Result carries the same counts
		m["source.accesses_per_query"] = ratio(float64(rec.accesses), queries)
		m["source.round_trips_per_query"] = ratio(float64(rec.batches), queries)
		m["source.batch_fill"] = ratio(float64(rec.accesses), float64(rec.batches))
	}
	m["remote.round_trips_per_query"] = ratio(d("toorjah_remote_round_trips_total"), queries)
	m["remote.retries"] = d("toorjah_remote_retries_total")

	m["wal.appends_per_ingest"] = ratio(d("toorjah_wal_appends_total"), ingests)
	m["wal.fsyncs_per_ingest"] = ratio(d("toorjah_wal_syncs_total"), ingests)
	m["wal.segments_sealed"] = d("toorjah_wal_segments_sealed_total")
	m["wal.bytes_per_row_byte"] = ratio(d("toorjah_wal_appended_bytes_total"), float64(rec.rowBytes))

	m["runtime.alloc_kb_per_op"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024, ops)
	m["runtime.mallocs_per_op"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops)
	m["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU)
	m["runtime.gc_pause_ms_total"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["runtime.heap_inuse_mb_end"] = float64(after.mem.HeapInuse) / (1 << 20)
	m["runtime.goroutines_end"] = float64(runtime.NumGoroutine())
}

// layerTimes derives the time-based per-layer metrics from the traced
// phase's spans: self times summed by span name, over the traced operations.
func layerTimes(m map[string]float64, tr *tracer) {
	s := summarize(tr.ops)
	n := float64(tr.queries)
	m["service.handler_us_p50"] = median(tr.handlerUS)
	m["service.self_us_p50"] = median(tr.selfUS)
	m["service.net_us_p50"] = median(tr.netUS)
	m["service.resp_bytes_per_query"] = ratio(tr.respBytes, n)
	m["service.ingest_handler_us_p50"] = median(tr.ingestHandlerUS)
	m["service.ingest_decode_us_p50"] = median(tr.decodeUS)

	m["exec.self_us_per_query"] = ratio(s.selfUS["pipeline"]+s.selfUS["group"]+s.selfUS["disjunct"]+s.selfUS["execute"], n)
	m["cache.lookup_us_per_query"] = ratio(s.selfUS["cache-lookup"], n)
	m["source.probe_us_per_query"] = ratio(s.selfUS["probe"], n)

	rts := float64(s.count["remote-probe"])
	m["remote.probe_us_per_rt"] = ratio(s.durUS["remote-probe"], rts)
	m["remote.peer_handler_us_p50"] = median(tr.peerUS)
	if len(tr.peerUS) > 0 {
		m["remote.wire_us_per_rt"] = ratio(s.durUS["remote-probe"]-s.durUS["peer.handler"], rts)
	}

	m["trace.overhead_frac"] = ratio(median(tr.tracedMS), median(tr.plainMS)) - 1
	if len(tr.plainMS) == 0 {
		m["trace.overhead_frac"] = 0
	}
	m["trace.self_sum_frac"] = ratio(s.selfSum(), s.clientUS)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). Each run
// is one workload in one process, so the mark is that workload's.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
