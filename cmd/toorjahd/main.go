// Command toorjahd is the long-running Toorjah query service: it loads a
// schema and CSV-backed sources once, plans each query shape once, and
// serves concurrent conjunctive queries over HTTP, streaming answers as
// NDJSON the moment the pipelined engine derives them. All requests share
// one cross-query access cache (internal/cache), so the dominant cost of
// the paper — accesses to limited sources — is paid at most once per
// distinct access across the whole service lifetime.
//
//	toorjahd -schema schema.txt -data datadir -addr :8344
//
// The schema file uses the paper's notation, one relation per line
// ("rev^ooi(Person, ConfName, Year)"); datadir holds one CSV file per
// relation (rev.csv, …; missing files are empty sources). Endpoints:
//
//	GET  /query?q=<CQ>[&limit=N]   stream answers as NDJSON, then a summary
//	POST /query                    same, query text in the request body
//	                               (bodies beyond 1 MiB are rejected with 413)
//	POST /ingest?relation=R[&op=]  apply one batch of live mutations (NDJSON
//	                               rows; op insert or delete; size-capped)
//	GET  /schema                   the loaded schema (+ per-relation epochs)
//	GET  /healthz                  liveness probe
//	GET  /metrics                  the node's read-out, Prometheus text:
//	                               query latency histograms per executor,
//	                               per-relation source accesses/round trips,
//	                               cache hits/misses/evictions/coalesces,
//	                               remote retries/breaker state/epochs,
//	                               probes served, ingest batches and rows,
//	                               relation epochs/rows/modification times
//
// A query text with several non-comment lines is a union of conjunctive
// queries (UCQ), one disjunct per line sharing the head predicate and
// arity: the disjuncts execute concurrently over the shared access cache
// and the deduplicated union answers stream as NDJSON the moment the first
// disjunct derives them; the summary line carries the merged access
// statistics and the disjunct count.
//
// Relations are live: POST /ingest?relation=rev streams NDJSON rows (one
// JSON string array per line) into the relation as a single batch — one
// epoch advance — with op=delete removing rows instead. Queries in flight
// keep the consistent version they started with; queries arriving after
// the ingest response see the new rows, including through the shared
// access cache (entries are keyed by data epoch).
//
// A node is also a federation peer: POST /probe serves batched
// binding-pattern probes of its relations to other toorjahd/toorjah nodes
// (behind the shared access cache, so repeat federated probes cost no local
// access), and -remote attaches relations served by other nodes as this
// node's own sources — a deployment shards its relations across machines
// and every node answers queries over the union. GET /healthz?ready is the
// readiness view, reporting the reachability of the attached peers within
// -ready-timeout.
//
// Every query is observable end to end: a random trace ID names it in the
// structured query log (one slog line per query with latency, access counts
// and cache-hit ratio; at or above -slow-query the line is a warning with
// slow=true) and rides the X-Toorjah-Trace header to probed peers, so a
// federated query stitches across every node's log. ?trace=1 on /query
// additionally returns the full span tree — query → disjunct/pipeline →
// probe → remote round trip — inside the NDJSON summary frame. -debug-addr
// starts a second, private listener serving net/http/pprof (never mounted
// on the public mux).
//
// With -data-dir the node is durable: every applied /ingest batch appends
// one checksummed record to a write-ahead log under that directory before
// the batch is acknowledged (-fsync picks the flush policy: always syncs
// inside the acknowledgement path, interval flushes on -fsync-interval,
// never leaves flushing to the OS), snapshot files of every relation's
// live rows are written every -snapshot-interval, and sealed WAL segments
// rotate by -wal-segment-bytes into an archive subdirectory. On restart the
// node recovers the latest valid snapshot, replays the WAL tail (truncating
// a torn final record rather than refusing to start), and serves the same
// rows and epochs it had acknowledged — the CSV seed in -data is read only
// on the very first boot. The startup log line accounts for the recovery,
// and /metrics gains the toorjah_wal_* families (appends, bytes, syncs,
// snapshots, recovery duration).
//
// The process drains gracefully: SIGINT/SIGTERM stop accepting connections
// and in-flight query streams get up to 15s to finish; a durable node then
// flushes and closes its WAL.
//
// The flags and their defaults are listed in README's toorjahd table and by
// toorjahd -h.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"toorjah"
	"toorjah/internal/obs"
	"toorjah/internal/schema"
	"toorjah/internal/service"
	"toorjah/internal/storage"
	"toorjah/internal/wal"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	schemaFile := flag.String("schema", "", "schema file (required)")
	dataDir := flag.String("data", "", "directory of per-relation CSV files (required)")
	addr := flag.String("addr", ":8344", "listen address")
	latency := flag.Duration("latency", 0, "simulated per-access latency")
	maxBatch := flag.Int("max-batch", 0, "access bindings per source round trip (0 = default 16, negative = unbatched)")
	noCache := flag.Bool("no-cache", false, "disable the cross-query access cache")
	cacheCap := flag.Int("cache-capacity", 0, "max cached accesses (0 or less = default 65536)")
	cacheTTL := flag.Duration("cache-ttl", 0, "expiry of cached accesses (0 = never)")
	maxIngest := flag.Int64("max-ingest-bytes", service.DefaultMaxIngestBytes, "cap on one /ingest request body")
	walDir := flag.String("data-dir", "", "durable state directory (WAL + snapshots; empty = memory only)")
	fsync := flag.String("fsync", wal.FsyncAlways, "WAL flush policy: always, interval or never")
	fsyncInterval := flag.Duration("fsync-interval", 0, "flush period under -fsync interval (0 = default 100ms)")
	snapInterval := flag.Duration("snapshot-interval", 5*time.Minute, "snapshot + archive period (0 = disabled)")
	segBytes := flag.Int64("wal-segment-bytes", 0, "active WAL segment size cap (0 = default 64 MiB)")
	var remotes multiFlag
	flag.Var(&remotes, "remote", "federation peer to attach, host[:port][=R1,R2] (repeatable)")
	remoteTimeout := flag.Duration("remote-timeout", 0, "per-probe-attempt timeout against federation peers (0 = default 10s)")
	readyTimeout := flag.Duration("ready-timeout", service.DefaultReadyTimeout, "peer reachability timeout of GET /healthz?ready")
	slowQuery := flag.Duration("slow-query", time.Second, "latency at or above which a query logs as slow (0 = no threshold)")
	debugAddr := flag.String("debug-addr", "", "private listen address for net/http/pprof (empty = disabled)")
	flag.Parse()

	if *schemaFile == "" || *dataDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	raw, err := os.ReadFile(*schemaFile)
	if err != nil {
		fatal(err)
	}
	sch, err := schema.Parse(string(raw))
	if err != nil {
		fatal(err)
	}
	var db *storage.Database
	var wlog *wal.Log
	if *walDir != "" {
		db, wlog, err = service.OpenDurable(sch, *dataDir, wal.Options{
			Dir:              *walDir,
			Fsync:            *fsync,
			FsyncInterval:    *fsyncInterval,
			SegmentMaxBytes:  *segBytes,
			SnapshotInterval: *snapInterval,
		})
		if err != nil {
			fatal(err)
		}
		rec := wlog.Stats().Recovery
		log.Printf("toorjahd: durable under %s (fsync=%s): recovered %d relation(s), %d record(s) replayed in %.1fms "+
			"(had_snapshot=%v truncated=%v records_skipped=%d unknown_records=%d)",
			*walDir, *fsync, rec.Relations, rec.RecordsReplayed, rec.DurationMS,
			rec.HadSnapshot, rec.Truncated, rec.RecordsSkipped, rec.UnknownRecords)
	} else {
		db, err = service.LoadDatabase(sch, *dataDir)
		if err != nil {
			fatal(err)
		}
	}

	opts := []toorjah.SystemOption{
		toorjah.WithLatency(*latency),
		toorjah.WithMaxBatch(*maxBatch),
		toorjah.WithRemoteOptions(toorjah.RemoteOptions{Timeout: *remoteTimeout}),
	}
	if !*noCache {
		opts = append(opts, toorjah.WithCache(toorjah.CacheOptions{
			Capacity: *cacheCap,
			TTL:      *cacheTTL,
		}))
	}
	sys := toorjah.NewSystem(sch, opts...)
	if err := sys.BindDatabase(db); err != nil {
		fatal(err)
	}
	for _, spec := range remotes {
		if err := sys.AttachRemote(context.Background(), spec); err != nil {
			fatal(err)
		}
		log.Printf("toorjahd: attached federation peer %s", spec)
	}

	svcOpts := []service.Option{
		service.WithMaxIngestBytes(*maxIngest),
		service.WithReadyTimeout(*readyTimeout),
		service.WithQueryLog(obs.NewQueryLog(slog.New(slog.NewTextHandler(os.Stderr, nil)), *slowQuery)),
	}
	if wlog != nil {
		// After every bind: the commit hook must cover each local table, and
		// only then may batches be acknowledged as durable.
		service.WireWAL(sys, wlog)
		svcOpts = append(svcOpts, service.WithWAL(wlog))
	}

	srv := service.New(sys, toorjah.Options{}, svcOpts...)
	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Header reads and idle keep-alives are bounded; request
		// read/write stay unbounded because /query streams answers for as
		// long as the extraction runs.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	err = serve(hs, sch.Len(), *dataDir)
	if wlog != nil {
		// After the drain: no in-flight ingest can append once Shutdown
		// returned, so the final flush covers every acknowledged batch.
		if cerr := wlog.Close(); cerr != nil {
			log.Printf("toorjahd: closing WAL: %v", cerr)
		}
	}
	if err != nil {
		fatal(err)
	}
}

// serve runs the HTTP server until it fails or a SIGINT/SIGTERM arrives,
// then shuts down gracefully: the listener closes immediately and in-flight
// requests get drainTimeout to finish.
const drainTimeout = 15 * time.Second

func serve(hs *http.Server, relations int, dataDir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("toorjahd: %d relation(s) loaded from %s, listening on %s", relations, dataDir, hs.Addr)
	select {
	case err := <-errc:
		return err // never ErrServerClosed: only Shutdown below closes it
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
		log.Printf("toorjahd: signal received, draining connections (up to %s)", drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Printf("toorjahd: drained, bye")
		return nil
	}
}

// serveDebug exposes net/http/pprof on its own listener with its own mux —
// deliberately never the public one, so CPU/heap/goroutine profiles (and
// the execution tracer) are reachable only from wherever -debug-addr is
// bound, typically localhost.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("toorjahd: pprof listening on %s/debug/pprof/", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("toorjahd: debug listener: %v", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "toorjahd:", err)
	os.Exit(1)
}
