// Package service is the toorjahd HTTP service behind cmd/toorjahd,
// importable so tools can run real in-process nodes: the full route table
// (/query streaming NDJSON, /ingest, /probe federation serving, /schema,
// /healthz, /metrics) over one toorjah.System, whose plan cache
// (one plan per query shape) and cross-query access cache every request
// shares.
// The repo benchmark and this package's own tests use it to stand up live
// nodes inside one process — same handlers, same metrics — so they exercise
// exactly the code a deployment serves.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"toorjah"
	"toorjah/internal/cq"
	"toorjah/internal/ndjson"
	"toorjah/internal/obs"
	"toorjah/internal/remote"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// maxQueryBytes bounds the /query request body; longer bodies are rejected
// with 413 rather than silently truncated into a parse error.
const maxQueryBytes = 1 << 20

// DefaultMaxIngestBytes bounds the /ingest request body (toorjahd's
// -max-ingest-bytes overrides); one batch of NDJSON rows must fit in
// memory twice anyway (decoded rows + table), so the cap is a defensive
// bound, not a tuning knob.
const DefaultMaxIngestBytes = 8 << 20

// DefaultReadyTimeout bounds the peer reachability checks of GET
// /healthz?ready (toorjahd's -ready-timeout overrides).
const DefaultReadyTimeout = 2 * time.Second

// runnable is a prepared query of either kind — a single CQ or a UCQ whose
// disjuncts stream concurrently — behind the one entry point /query needs.
type runnable interface {
	Execute(ctx context.Context, options ...toorjah.ExecOption) (*toorjah.Result, error)
}

type Server struct {
	sys   *toorjah.System
	exec  toorjah.Options // executor tuning shared by every served query
	start time.Time

	probeH         *remote.Handler
	maxIngestBytes int64 // the cap on one /ingest body

	// Observability: the registry behind GET /metrics, the node's one
	// read-out. The service's own counts and histograms below live in it and
	// are fed where their event happens; what the system keeps elsewhere is
	// collected at scrape time (registerCollectors); the source-level
	// families travel to every execution in exec.Metrics. Then the
	// structured query log (nil = silent) and the peer reachability timeout
	// of /healthz?ready.
	metrics                         *obs.Registry
	served, ucqServed               *obs.Counter      // /query runs served; those that were unions
	queryDuration, queryFirst       *obs.HistogramVec // by executor
	probesServed, peerProbeAccesses *obs.CounterVec   // /probe round trips and bindings, by relation
	peerProbeTuples                 *obs.CounterVec   // and tuples streamed back
	peerProbeDur                    *obs.Histogram
	ingestsServed, ingestRows       *obs.CounterVec // /ingest batches and applied rows, by relation and op
	writeErrs                       *obs.Counter
	queryLog                        *obs.QueryLog
	readyTimeout                    time.Duration
}

// Option configures a Server at construction.
type Option func(*Server)

// WithMaxIngestBytes caps one /ingest request body (default
// DefaultMaxIngestBytes); zero or negative keeps the default.
func WithMaxIngestBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxIngestBytes = n
		}
	}
}

// WithReadyTimeout bounds the peer reachability checks of /healthz?ready
// (default DefaultReadyTimeout); zero or negative keeps the default.
func WithReadyTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.readyTimeout = d
		}
	}
}

// WithQueryLog attaches a structured query log; nil keeps the server
// silent.
func WithQueryLog(l *obs.QueryLog) Option {
	return func(s *Server) { s.queryLog = l }
}

// New builds the route table's state over a system. Every endpoint reads
// the system's bindings per request, so relations bound, attached or rebound
// afterwards are served as they stand.
func New(sys *toorjah.System, execOpts toorjah.Options, opts ...Option) *Server {
	s := &Server{
		sys:            sys,
		exec:           execOpts,
		start:          time.Now(),
		maxIngestBytes: DefaultMaxIngestBytes,
		readyTimeout:   DefaultReadyTimeout,
	}
	m := obs.NewRegistry()
	s.metrics = m
	s.exec.Metrics = obs.NewProbeMetrics(m)
	s.served = m.Counter("toorjah_queries_served_total",
		"Queries served to completion by /query (unions included).")
	s.ucqServed = m.Counter("toorjah_ucqs_served_total",
		"Served queries that were unions of conjunctive queries.")
	s.probesServed = m.CounterVec("toorjah_probes_served_total",
		"POST /probe round trips answered for federated peers, by relation.", "relation")
	s.peerProbeAccesses = m.CounterVec("toorjah_peer_probe_accesses_total",
		"Bindings probed by POST /probe for federated peers, by relation.", "relation")
	s.peerProbeTuples = m.CounterVec("toorjah_peer_probe_tuples_total",
		"Tuples streamed by POST /probe to federated peers, by relation.", "relation")
	s.ingestsServed = m.CounterVec("toorjah_ingests_served_total",
		"POST /ingest batches applied, by relation and op.", "relation", "op")
	s.ingestRows = m.CounterVec("toorjah_ingest_rows_total",
		"Rows applied by POST /ingest, by relation and op.", "relation", "op")
	s.queryDuration = s.metrics.HistogramVec("toorjah_query_duration_seconds",
		"End-to-end latency of one served /query, by executor.", obs.LatencyBuckets, "executor")
	s.queryFirst = s.metrics.HistogramVec("toorjah_query_time_to_first_seconds",
		"Time until the first answer of one served /query streamed, by executor.", obs.LatencyBuckets, "executor")
	s.peerProbeDur = s.metrics.Histogram("toorjah_peer_probe_duration_seconds",
		"Latency of one /probe round trip served to a federated peer.", obs.LatencyBuckets)
	s.writeErrs = s.metrics.Counter("toorjah_response_write_errors_total",
		"Responses cut short by a failed write; on /query, not one whose client had already left.")
	s.registerCollectors()
	obs.RegisterRuntimeMetrics(s.metrics)
	s.probeH = remote.NewHandler(sys.PeerSource)
	s.probeH.Record = s.recordProbe
	for _, o := range opts {
		o(s)
	}
	return s
}

// registerCollectors turns the point-in-time statistics the system and its
// peers keep — uptime, the plan and access caches, remote telemetry — into
// scrape-time series on /metrics, read where they are kept, never copied.
func (s *Server) registerCollectors() {
	m := s.metrics
	m.GaugeFunc("toorjah_uptime_seconds",
		"Seconds since the service started.",
		func() float64 { return time.Since(s.start).Seconds() })
	m.GaugeFunc("toorjah_prepared_plans",
		"Query shapes whose plan the system currently holds.",
		func() float64 { return float64(s.sys.PlanCacheStats().Shapes) })
	m.CounterFunc("toorjah_plan_cache_hits_total",
		"Prepared queries (each disjunct of a union counts) whose shape was already planned.",
		func() float64 { return float64(s.sys.PlanCacheStats().Hits) })
	m.CounterFunc("toorjah_plan_cache_misses_total",
		"Prepared queries (each disjunct of a union counts) whose shape had to be planned.",
		func() float64 { return float64(s.sys.PlanCacheStats().Misses) })
	m.CounterFunc("toorjah_plan_cache_evictions_total",
		"Planned query shapes dropped at the plan cache's bound.",
		func() float64 { return float64(s.sys.PlanCacheStats().Evictions) })
	m.GaugeFunc("toorjah_symbols",
		"Values the process-wide symbol table holds: interned and not freed by a sweep.",
		func() float64 { return float64(sym.Default.Len()) })
	m.CounterFunc("toorjah_symbol_sweeps_total",
		"Sweeps of the symbol table, each freeing the values nothing holds.",
		func() float64 { return float64(sym.Default.Stats().Sweeps) })

	if c := s.sys.AccessCache(); c != nil {
		cacheCounter := func(name, help string, field func(toorjah.CacheStats) float64) {
			m.CounterVecFunc(name, help, []string{"relation"}, func(emit func([]string, float64)) {
				for rel, st := range c.Snapshot() {
					emit([]string{rel}, field(st))
				}
			})
		}
		cacheCounter("toorjah_cache_hits_total",
			"Accesses served from the cross-query cache, by relation.",
			func(st toorjah.CacheStats) float64 { return float64(st.Hits) })
		cacheCounter("toorjah_cache_misses_total",
			"Accesses that fell through the cross-query cache to the source, by relation.",
			func(st toorjah.CacheStats) float64 { return float64(st.Misses) })
		cacheCounter("toorjah_cache_coalesced_total",
			"Accesses merged into an identical probe already in flight (singleflight), by relation.",
			func(st toorjah.CacheStats) float64 { return float64(st.Collapsed) })
		cacheCounter("toorjah_cache_evictions_total",
			"Cache entries dropped by the LRU capacity bound, by relation.",
			func(st toorjah.CacheStats) float64 { return float64(st.Evictions) })
		cacheCounter("toorjah_cache_expirations_total",
			"Cache entries dropped by TTL expiry, by relation.",
			func(st toorjah.CacheStats) float64 { return float64(st.Expirations) })
		m.GaugeVecFunc("toorjah_cache_entries",
			"Accesses currently cached, by relation.",
			[]string{"relation"}, func(emit func([]string, float64)) {
				for rel, st := range c.Snapshot() {
					emit([]string{rel}, float64(st.Entries))
				}
			})
	}

	remoteCounter := func(name, help string, field func(toorjah.RemoteTelemetry) float64) {
		m.CounterVecFunc(name, help, []string{"peer", "relation"}, func(emit func([]string, float64)) {
			for _, p := range s.sys.RemotePeers() {
				for rel, t := range p.Telemetry() {
					emit([]string{p.Base(), rel}, field(t))
				}
			}
		})
	}
	remoteCounter("toorjah_remote_round_trips_total",
		"Outbound HTTP probe round trips to a federation peer (retries included), by peer and relation.",
		func(t toorjah.RemoteTelemetry) float64 { return float64(t.RoundTrips) })
	remoteCounter("toorjah_remote_retries_total",
		"Outbound probe attempts that were retries, by peer and relation.",
		func(t toorjah.RemoteTelemetry) float64 { return float64(t.Retries) })
	remoteCounter("toorjah_remote_breaker_opens_total",
		"Times a peer relation's circuit breaker opened, by peer and relation.",
		func(t toorjah.RemoteTelemetry) float64 { return float64(t.BreakerOpens) })
	remoteCounter("toorjah_remote_epoch_changes_total",
		"Times a peer relation's data epoch changed between probes (stale-snapshot detections), by peer and relation.",
		func(t toorjah.RemoteTelemetry) float64 { return float64(t.EpochChanges) })
	remoteCounter("toorjah_remote_latency_seconds_total",
		"Cumulative wall-clock probe latency spent on a peer relation, by peer and relation.",
		func(t toorjah.RemoteTelemetry) float64 { return t.LatencyMS / 1000 })
	m.GaugeVecFunc("toorjah_remote_breaker_state",
		"Circuit breaker state per peer relation: 0 closed, 1 half-open, 2 open.",
		[]string{"peer", "relation"}, func(emit func([]string, float64)) {
			for _, p := range s.sys.RemotePeers() {
				for rel, t := range p.Telemetry() {
					emit([]string{p.Base(), rel}, breakerStateValue(t.BreakerState))
				}
			}
		})
	m.GaugeVecFunc("toorjah_remote_epoch",
		"Last observed data epoch of a peer relation, by peer and relation.",
		[]string{"peer", "relation"}, func(emit func([]string, float64)) {
			for _, p := range s.sys.RemotePeers() {
				for rel, t := range p.Telemetry() {
					emit([]string{p.Base(), rel}, float64(t.Epoch))
				}
			}
		})

	m.GaugeVecFunc("toorjah_relation_epoch",
		"Current data version of a relation (advances once per mutating batch; 0 = unversioned).",
		[]string{"relation"}, func(emit func([]string, float64)) {
			for rel, info := range s.sys.DataInfo() {
				emit([]string{rel}, float64(info.Epoch))
			}
		})
	m.GaugeVecFunc("toorjah_relation_rows",
		"Live row count of a locally served relation.",
		[]string{"relation"}, func(emit func([]string, float64)) {
			for rel, info := range s.sys.DataInfo() {
				if info.Local {
					emit([]string{rel}, float64(info.Rows))
				}
			}
		})
	m.GaugeVecFunc("toorjah_relation_modified_timestamp_seconds",
		"Unix time a local relation's data last changed (the boot-time load counts).",
		[]string{"relation"}, func(emit func([]string, float64)) {
			for rel, info := range s.sys.DataInfo() {
				if !info.ModifiedAt.IsZero() {
					emit([]string{rel}, float64(info.ModifiedAt.UnixNano())/1e9)
				}
			}
		})
}

// breakerStateValue maps a breaker state name onto the gauge scale.
func breakerStateValue(state string) float64 {
	switch state {
	case "closed":
		return 0
	case "half-open":
		return 1
	case "open":
		return 2
	}
	return -1
}

// recordProbe counts one served /probe (a request is one round trip of
// `accesses` bindings) and its latency, and logs it with the calling query's
// trace ID, so a federated trace stitches across nodes in the logs.
func (s *Server) recordProbe(p remote.ProbeRecord) {
	s.probesServed.With(p.Relation).Inc()
	s.peerProbeAccesses.With(p.Relation).Add(int64(p.Accesses))
	s.peerProbeTuples.With(p.Relation).Add(int64(p.Tuples))
	s.peerProbeDur.Observe(p.Elapsed.Seconds())
	s.queryLog.Probe(p.TraceID, p.Relation, p.Accesses, p.Tuples, p.Elapsed)
}

// handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.Handle("/probe", s.probeH)
	mux.HandleFunc("/schema", s.handleSchema)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.metrics.Handler())
	return mux
}

// handleHealthz is the liveness probe; with ?ready it becomes the readiness
// view, checking every attached federation peer's reachability in parallel
// and answering 503 when any is down (so a load balancer can stop routing
// federated queries to a node whose peers are unreachable).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !r.URL.Query().Has("ready") {
		s.writeString(w, "ok\n")
		return
	}
	type peerStatus struct {
		Reachable bool   `json:"reachable"`
		Error     string `json:"error,omitempty"`
	}
	resp := struct {
		Ready bool                  `json:"ready"`
		Peers map[string]peerStatus `json:"peers"`
	}{Ready: true, Peers: make(map[string]peerStatus)}

	ctx, cancel := context.WithTimeout(r.Context(), s.readyTimeout)
	defer cancel()
	peers := s.sys.RemotePeers()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *toorjah.RemotePeer) {
			defer wg.Done()
			err := p.Healthy(ctx)
			st := peerStatus{Reachable: err == nil}
			if err != nil {
				st.Error = err.Error()
			}
			mu.Lock()
			resp.Peers[p.Base()] = st
			if err != nil {
				resp.Ready = false
			}
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	s.encode(enc, resp)
}

// encode writes one JSON value to the response stream, counting a failed
// write; the false return tells a streaming caller the client is gone.
func (s *Server) encode(enc *json.Encoder, v any) bool {
	if err := enc.Encode(v); err != nil {
		s.writeErrs.Inc()
		return false
	}
	return true
}

// writeString is io.WriteString to the response with the same
// dropped-write accounting.
func (s *Server) writeString(w io.Writer, text string) {
	if _, err := io.WriteString(w, text); err != nil {
		s.writeErrs.Inc()
	}
}

// prepare parses a query text — a single CQ, or a UCQ when the text has
// several disjunct lines — and prepares it against the system, whose plan
// cache makes that a lookup for every shape it has seen.
func (s *Server) prepare(text string) (runnable, error) {
	if cq.IsUnion(text) {
		return s.sys.PrepareUCQ(text)
	}
	return s.sys.Prepare(text)
}

// answerLine / doneLine / errorLine are the NDJSON frames of /query. The
// answer and done lines are rendered by appendAnswerLine and appendDoneLine,
// not through these types, which stay as the frames' definition and the
// reference the encoders are held to.
type answerLine struct {
	Answer []string `json:"answer"`
}

type doneLine struct {
	Done      bool    `json:"done"`
	Answers   int     `json:"answers"`
	Accesses  int     `json:"accesses"`
	Batches   int     `json:"batches"`
	Tuples    int     `json:"tuples"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Truncated bool    `json:"truncated,omitempty"`
	// Disjuncts is the disjunct count of a UCQ request (absent for a CQ).
	Disjuncts int `json:"disjuncts,omitempty"`
	// TraceID identifies the query in this node's query log and, for
	// federated queries, in every probed peer's log (the ID rides the
	// X-Toorjah-Trace header).
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the query's span tree (query → disjunct/pipeline → probe →
	// remote round trip), present only when the request asked for it with
	// ?trace=1.
	Trace *obs.SpanJSON `json:"trace,omitempty"`
}

type errorLine struct {
	Error string `json:"error"`
}

// handleQuery answers one conjunctive query — or a union of them, one
// disjunct per line — streaming each distinct answer as an NDJSON line, the
// first the moment the engine derives it and the rest burst by burst as
// round trips land, then a final summary line, in one write with the run's
// last burst. The query text
// comes from the q parameter (GET) or the request body (POST); limit, when
// positive, stops after that many answers.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query() // parsed once: every call to Query re-parses the raw string
	var text string
	switch r.Method {
	case http.MethodGet:
		text = params.Get("q")
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBytes))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, fmt.Sprintf("query body exceeds %d bytes", tooLarge.Limit),
					http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		text = string(body)
		if strings.TrimSpace(text) == "" {
			text = params.Get("q")
		}
	default:
		http.Error(w, "use GET ?q= or POST with the query as body", http.StatusMethodNotAllowed)
		return
	}
	if strings.TrimSpace(text) == "" {
		http.Error(w, "empty query; pass ?q= or a request body", http.StatusBadRequest)
		return
	}
	limit := 0
	if v := params.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	q, err := s.prepare(text)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	executor := "pipelined"
	if _, ok := q.(*toorjah.UnionQuery); ok {
		executor = "union"
	}

	// Every query gets a trace ID — it names the query in this node's log
	// and propagates to probed peers — but the span tree is only collected
	// when the client asks (?trace=1): the untraced path pays one context
	// value lookup per probe batch and nothing else.
	traceID := obs.NewTraceID()
	// A disconnected client cancels the run, so the executor stops
	// spending accesses on an answer nobody will read. A failed answer
	// write cancels it too: the TCP session can outlive the reader.
	ctx, cancel := context.WithCancel(obs.ContextWithTraceID(r.Context(), traceID))
	defer cancel()
	var trace *obs.Trace
	if params.Get("trace") == "1" {
		trace = obs.NewTrace(traceID, "query")
		trace.Root.SetAttr("executor", executor)
		ctx = obs.ContextWithSpan(ctx, trace.Root)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	opts := s.exec
	opts.Limit = limit
	// Answers leave the way the engine hands them over, in bursts: the
	// answers derived since the last burst are rendered into one buffer and
	// written and flushed together — the engine delivers before it sends or
	// awaits a round trip, so no answer sits in a buffer while a source is
	// awaited — and the very first answer is flushed on its own, time to
	// first answer being what streaming is for. The run's last burst waits
	// for nothing but the done line and leaves with it: a response whose run
	// never waited again is one Write and no Flush, sent un-chunked. Calls are
	// serialized by both kinds of runnable — a CQ delivers from the goroutine
	// executing the query, a UCQ serializes its concurrent disjuncts — so
	// the buffers need no locking. Answers materialize to strings only here,
	// at the NDJSON boundary.
	var (
		lines     = make([]byte, 0, 512) // rendered, not yet written; reused; a point response fits
		vals      []string               // one answer's values; reused from answer to answer
		streaming bool                   // the first answer has left
		failed    bool                   // a write failed: the response is over, render nothing more
	)
	write := func(flush bool) {
		if _, err := w.Write(lines); err != nil {
			// One failed response, not one per write — and none when the
			// request's context is done: the client left, no server error.
			if r.Context().Err() == nil {
				s.writeErrs.Inc()
			}
			failed = true
			cancel() // nobody is reading: abort the execution, not just the stream
		} else if flush && flusher != nil {
			flusher.Flush()
		}
		lines = lines[:0]
	}
	res, err := q.Execute(ctx, toorjah.WithExecOptions(opts),
		toorjah.OnBursts(func(burst []toorjah.Tuple, last bool) {
			for _, t := range burst {
				if failed {
					return
				}
				if len(lines) >= ndjson.Spill {
					write(false) // net/http's own buffering takes it from here
				}
				vals = sym.Default.StrsAppend(vals, t)
				lines = appendAnswerLine(lines, vals)
				if !streaming && !last {
					streaming = true
					write(true)
				}
			}
			if len(lines) > 0 && !last {
				write(true)
			}
		}))
	gone := failed || r.Context().Err() != nil // nobody is reading an error line or a summary
	if err != nil {
		s.queryLog.Query(obs.QueryRecord{TraceID: traceID, Query: text, Executor: executor, Err: err})
		// The stream may already be half-written; report the error in-band.
		if !gone {
			s.encode(json.NewEncoder(w), errorLine{Error: err.Error()})
		}
		return
	}
	s.queryDuration.With(executor).Observe(res.Elapsed.Seconds())
	if res.TimeToFirst > 0 {
		s.queryFirst.With(executor).Observe(res.TimeToFirst.Seconds())
	}
	s.queryLog.Query(obs.QueryRecord{
		TraceID:     traceID,
		Query:       text,
		Executor:    executor,
		Answers:     res.Answers.Len(),
		Accesses:    res.TotalAccesses(),
		Demanded:    res.Demanded,
		RoundTrips:  res.TotalBatches(),
		Elapsed:     res.Elapsed,
		TimeToFirst: res.TimeToFirst,
		Truncated:   res.Truncated,
	})
	if gone {
		return
	}
	s.served.Inc()
	done := doneLine{
		Done:      true,
		Answers:   res.Answers.Len(),
		Accesses:  res.TotalAccesses(),
		Batches:   res.TotalBatches(),
		Tuples:    res.TotalTuples(),
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
		Truncated: res.Truncated,
		TraceID:   traceID,
	}
	if u, ok := q.(*toorjah.UnionQuery); ok {
		s.ucqServed.Inc()
		done.Disjuncts = len(u.Disjuncts())
	}
	if trace != nil {
		trace.Root.End()
		tj := trace.JSON()
		done.Trace = &tj
	}
	lines = appendDoneLine(lines, &done)
	write(false)
}

// ingestResponse is the JSON payload answering one applied /ingest.
type ingestResponse struct {
	Relation string `json:"relation"`
	Op       string `json:"op"`
	// Rows is how many rows the request carried; Applied how many actually
	// changed the relation (duplicates and absent deletions are no-ops).
	Rows    int `json:"rows"`
	Applied int `json:"applied"`
	// Epoch is the relation's data version after the batch. Queries already
	// running keep their pinned older version; every query starting after
	// this response sees exactly this epoch or a later one.
	Epoch     uint64  `json:"epoch"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// handleIngest applies one batch of live mutations to a relation:
//
//	POST /ingest?relation=rev[&op=insert|delete]
//
// with an NDJSON body, one JSON string array per line ("["alice","icde",
// "y2008"]"), each of the relation's arity. The whole body is one batch —
// one copy-on-write step, at most one epoch advance — applied atomically
// with respect to queries: in-flight executions keep their pinned version,
// and the cross-query cache stops serving the relation's older extractions
// (negative entries included) the moment the epoch advances. Bodies beyond
// -max-ingest-bytes are rejected with 413; nothing is applied on a parse
// or arity error.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST with NDJSON rows as the body", http.StatusMethodNotAllowed)
		return
	}
	params := r.URL.Query() // parsed once, as in handleQuery
	rel := params.Get("relation")
	if rel == "" {
		http.Error(w, "missing ?relation=", http.StatusBadRequest)
		return
	}
	op := params.Get("op")
	if op == "" {
		op = "insert"
	}
	if op != "insert" && op != "delete" {
		http.Error(w, "op must be insert or delete", http.StatusBadRequest)
		return
	}
	relSchema := s.sys.Schema().Relation(rel)
	if relSchema == nil {
		http.Error(w, "unknown relation "+rel, http.StatusNotFound)
		return
	}

	body, readErr := ndjson.Read(http.MaxBytesReader(w, r.Body, s.maxIngestBytes))
	defer body.Free()
	rows, err := decodeIngestRows(body.B, readErr, relSchema.Arity())
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("ingest body exceeds %d bytes", tooLarge.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	start := time.Now()
	var applied int
	if op == "insert" {
		applied, err = s.sys.Insert(rel, rows...)
	} else {
		applied, err = s.sys.Delete(rel, rows...)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.ingestsServed.With(rel, op).Inc()
	s.ingestRows.With(rel, op).Add(int64(applied))

	w.Header().Set("Content-Type", "application/json")
	// The rows are copies: the body's buffer is free to hold the ack.
	body.B = appendIngestAck(body.B[:0], &ingestResponse{
		Relation:  rel,
		Op:        op,
		Rows:      len(rows),
		Applied:   applied,
		Epoch:     s.sys.RelationEpoch(rel),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
	if _, err := w.Write(body.B); err != nil {
		s.writeErrs.Inc()
	}
}

// decodeIngestRows decodes an NDJSON ingest body — JSON arrays of strings,
// one per line as a rule, each of the given arity — stopping at the first
// malformed or wrong-arity row. body is what the request's reader delivered
// and readErr what it ended with (nil at a clean end): a body cut off by
// http.MaxBytesReader fails at the row the cut falls in, with an error that
// wraps *http.MaxBytesError for the handler's 413 path. A row ndjson.Scanner
// does not take literally is encoding/json's to decide, and the rows behind
// it with it.
func decodeIngestRows(body []byte, readErr error, arity int) ([]toorjah.Row, error) {
	sc := ndjson.Scanner{B: body, Err: readErr}
	var rows []toorjah.Row
	for {
		if err := sc.End(); err == io.EOF {
			return rows, nil
		} else if err != nil {
			return nil, fmt.Errorf("row %d: %w", len(rows)+1, err)
		}
		at := sc.I
		row := sc.Strings()
		if sc.Failed() {
			var decoded []string // its own variable: what a decoder is handed lives on the heap
			if err := sc.Fallback(at, &decoded); err != nil {
				return nil, fmt.Errorf("row %d: %w", len(rows)+1, err)
			}
			row = decoded
		}
		if len(row) != arity {
			return nil, fmt.Errorf("row %d has arity %d, want %d", len(rows)+1, len(row), arity)
		}
		rows = append(rows, row)
	}
}

// handleSchema serves the schema in the paper's notation — the federation
// discovery format — followed by "# epoch" comment lines advertising each
// relation's current data version, so an attaching peer keys its cache by
// the right version before its first probe.
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	for _, rel := range s.sys.Schema().Relations() {
		fmt.Fprintln(&b, rel)
	}
	epochs := make(map[string]uint64)
	for name, info := range s.sys.DataInfo() {
		epochs[name] = info.Epoch
	}
	remote.AppendSchemaEpochs(&b, epochs)
	s.writeString(w, b.String())
}

// LoadDatabase reads one CSV file per schema relation from dir; missing
// files become empty sources. It is the boot-time loader of cmd/toorjahd and
// cmd/toorjah, and of any other harness that stands a Server up over CSV data.
func LoadDatabase(sch *schema.Schema, dir string) (*storage.Database, error) {
	db := storage.NewDatabase()
	for _, rel := range sch.Relations() {
		if _, err := loadCSVRelation(db, rel, dir); err != nil {
			return nil, err
		}
	}
	return db, nil
}
