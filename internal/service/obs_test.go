package service

// Observability acceptance tests: /metrics must render valid Prometheus
// text covering the query/cache/source/remote/ingest families and stay
// consistent under concurrent queries and scrapes; a federated ?trace=1
// query must return a span tree whose remote-probe spans carry the same
// trace ID the probed peer logs; and /healthz?ready must answer within the
// configured -ready-timeout even against a peer that hangs.

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toorjah"
	"toorjah/internal/obs"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// scrapeMetrics fetches /metrics and returns the body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	var b strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

// metricValue extracts one sample's value from an exposition body; the
// series must be present exactly as given (labels included).
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && name == series {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, val)
			}
			return f
		}
	}
	t.Fatalf("series %s not found in /metrics", series)
	return 0
}

// checkExposition validates the format invariants of a scrape: every sample
// belongs to a family announced by HELP and TYPE lines, every HELP line says
// something, and every histogram's cumulative buckets are monotone with the
// +Inf bucket equal to its _count.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	typed := make(map[string]string) // family -> type
	helped := make(map[string]bool)
	type bucketSeries struct {
		last  int64
		bound float64
	}
	buckets := make(map[string]*bucketSeries) // series-sans-le -> state
	counts := make(map[string]int64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			f := strings.Fields(rest)
			if len(f) < 2 {
				t.Errorf("family %s has no help text", f[0])
			}
			helped[f[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			typed[f[0]] = f[1]
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		family := base
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(base, suffix); ok && typed[f] == "histogram" {
				family = f
			}
		}
		if typed[family] == "" || !helped[family] {
			t.Errorf("sample %q has no HELP/TYPE for family %q", line, family)
		}
		if strings.HasSuffix(base, "_bucket") && typed[family] == "histogram" {
			le := ""
			if i := strings.Index(name, `le="`); i >= 0 {
				le = name[i+4:]
				le = le[:strings.IndexByte(le, '"')]
			}
			// Strip the le pair (it is always the last label), comma
			// included when other labels precede it.
			key := strings.Replace(name, `,le="`+le+`"`, "", 1)
			key = strings.Replace(key, `le="`+le+`"`, "", 1)
			cum, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket %q: bad count %q", name, val)
			}
			bs := buckets[key]
			if bs == nil {
				bs = &bucketSeries{last: -1}
				buckets[key] = bs
			}
			if cum < bs.last {
				t.Errorf("bucket %q: cumulative count %d < previous %d", name, cum, bs.last)
			}
			bs.last = cum
			if le == "+Inf" {
				counts[key] = cum
			}
		}
	}
	if len(buckets) == 0 {
		t.Error("no histogram buckets in scrape")
	}
	for key, inf := range counts {
		countSeries := strings.Replace(key, "_bucket", "_count", 1)
		countSeries = strings.TrimSuffix(countSeries, "{}")
		if got := metricValue(t, body, countSeries); int64(got) != inf {
			t.Errorf("series %s: +Inf bucket %d != _count %v", key, inf, got)
		}
	}
}

// TestMetricsEndpoint is the scrape golden test: after two identical
// queries (the second fully absorbed by the cross-query cache), one ingest
// batch and one probe served to a peer, /metrics must render every required
// family with HELP/TYPE and its label names, monotone histogram buckets, and
// values matching what the service did.
func TestMetricsEndpoint(t *testing.T) {
	// Mutable tables via BindDatabase so /ingest works against the fixture.
	sch := schema.MustParse(pubSchemaText)
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	if err := sys.BindDatabase(pubDatabase(t, sch)); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, toorjah.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := ts.URL + "/query?q=" + strings.ReplaceAll(pubQuery, " ", "%20")
	for i := 0; i < 2; i++ {
		if answers, _ := queryNDJSON(t, q); strings.Join(answers, ";") != "alice" {
			t.Fatalf("query %d answers = %v", i, answers)
		}
	}
	resp, err := http.Post(ts.URL+"/ingest?relation=pub1", "application/x-ndjson",
		strings.NewReader("[\"p9\",\"zoe\"]\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/probe", "application/json",
		strings.NewReader(`{"relation":"rev","bindings":[["y2008"],["y2007"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/probe status %d", resp.StatusCode)
	}

	body := scrapeMetrics(t, ts.URL)
	checkExposition(t, body)

	// Catalog coverage: one family per signal group the issue demands.
	for family, typ := range map[string]string{
		"toorjah_query_duration_seconds":   "histogram",
		"toorjah_probe_duration_seconds":   "histogram",
		"toorjah_probe_batch_size":         "histogram",
		"toorjah_source_accesses_total":    "counter",
		"toorjah_source_round_trips_total": "counter",
		"toorjah_cache_hits_total":         "counter",
		"toorjah_cache_misses_total":       "counter",
		"toorjah_cache_coalesced_total":    "counter",
		"toorjah_cache_evictions_total":    "counter",
		"toorjah_remote_round_trips_total": "counter",
		"toorjah_remote_breaker_state":     "gauge",
		"toorjah_queries_served_total":     "counter",
		"toorjah_uptime_seconds":           "gauge",
	} {
		if !strings.Contains(body, "# TYPE "+family+" "+typ) {
			t.Errorf("family %s (%s) missing from scrape", family, typ)
		}
	}
	// The families labeled by what the node served: type and label names.
	for family, want := range map[string]struct{ typ, labels string }{
		"toorjah_probes_served_total":                 {"counter", "relation"},
		"toorjah_peer_probe_accesses_total":           {"counter", "relation"},
		"toorjah_peer_probe_tuples_total":             {"counter", "relation"},
		"toorjah_ingests_served_total":                {"counter", "relation,op"},
		"toorjah_ingest_rows_total":                   {"counter", "relation,op"},
		"toorjah_relation_modified_timestamp_seconds": {"gauge", "relation"},
	} {
		if !strings.Contains(body, "# TYPE "+family+" "+want.typ+"\n") {
			t.Errorf("family %s (%s) missing from scrape", family, want.typ)
		}
		series := 0
		for _, line := range strings.Split(body, "\n") {
			name, labels, _ := strings.Cut(strings.SplitN(line, " ", 2)[0], "{")
			if name != family {
				continue
			}
			series++
			var names []string
			for _, pair := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				k, _, _ := strings.Cut(pair, "=")
				names = append(names, k)
			}
			if got := strings.Join(names, ","); got != want.labels {
				t.Errorf("%q is labeled by %q, want %q", line, got, want.labels)
			}
		}
		if series == 0 {
			t.Errorf("family %s has no series", family)
		}
	}

	if got := metricValue(t, body, "toorjah_queries_served_total"); got != 2 {
		t.Errorf("queries_served_total = %v, want 2", got)
	}
	if got := metricValue(t, body, `toorjah_query_duration_seconds_count{executor="pipelined"}`); got != 2 {
		t.Errorf("query duration count = %v, want 2", got)
	}
	// The first query probed rev; the second was absorbed by the cache.
	if got := metricValue(t, body, `toorjah_source_accesses_total{relation="rev"}`); got == 0 {
		t.Error("no source accesses recorded for rev")
	}
	if got := metricValue(t, body, `toorjah_cache_hits_total{relation="rev"}`); got == 0 {
		t.Error("repeat query recorded no cache hits for rev")
	}
	for series, want := range map[string]float64{
		`toorjah_ingests_served_total{relation="pub1",op="insert"}`: 1,
		`toorjah_ingest_rows_total{relation="pub1",op="insert"}`:    1,
		// One round trip of two bindings, answered by alice's review alone.
		`toorjah_probes_served_total{relation="rev"}`:       1,
		`toorjah_peer_probe_accesses_total{relation="rev"}`: 2,
		`toorjah_peer_probe_tuples_total{relation="rev"}`:   1,
	} {
		if got := metricValue(t, body, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if got := metricValue(t, body, `toorjah_relation_epoch{relation="pub1"}`); got == 0 {
		t.Error("pub1 epoch did not advance on /metrics after ingest")
	}
	if got := metricValue(t, body, `toorjah_relation_modified_timestamp_seconds{relation="pub1"}`); got <= 0 {
		t.Errorf("pub1 modified at %v, want the ingest's time", got)
	}
}

// heldSource keeps every probe of its relation — after the first free of
// them — inside the source until release is closed: a latency-bearing source
// whose latency the test ends.
type heldSource struct {
	source.Wrapper
	free    atomic.Int32 // probes still let straight through
	release chan struct{}
}

func (h *heldSource) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	if h.free.Add(-1) < 0 {
		select {
		case <-h.release:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return h.Wrapper.Probe(ctx, ids, out)
}

// TestMetricsCoalescedOnServingPath: two identical cold queries in flight
// at once share one source round trip per access, and the merge shows on
// /metrics as toorjah_cache_coalesced_total. The first relation the plan
// probes is held in its source until the cache has classified both
// queries' accesses, so the overlap is forced, not a matter of timing.
func TestMetricsCoalescedOnServingPath(t *testing.T) {
	sys, counters := newTestSystem(t, toorjah.WithCache(toorjah.CacheOptions{}))
	held := &heldSource{Wrapper: counters["conf"], release: make(chan struct{})}
	sys.Bind(held)
	ts := httptest.NewServer(New(sys, toorjah.Options{}).Handler())
	defer ts.Close()
	q := ts.URL + "/query?q=" + strings.ReplaceAll(pubQuery, " ", "%20")

	var wg sync.WaitGroup
	got := make([]string, 2)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers, _ := queryNDJSON(t, q)
			got[i] = strings.Join(answers, ";")
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := sys.AccessCache().Snapshot()["conf"]
		if st.Misses+st.Collapsed == 2 {
			break
		}
		if time.Now().After(deadline) {
			close(held.release)
			t.Fatalf("both queries never reached the cache: conf stats %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(held.release)
	wg.Wait()

	for i, g := range got {
		if g != "alice" {
			t.Errorf("query %d answers = %q, want alice", i, g)
		}
	}
	if n := counters["conf"].Stats().Accesses; n != 1 {
		t.Errorf("conf reached its source %d times, want 1", n)
	}
	body := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, body, `toorjah_cache_coalesced_total{relation="conf"}`); v < 1 {
		t.Errorf("toorjah_cache_coalesced_total{conf} = %v, want > 0", v)
	}
	if v := metricValue(t, body, `toorjah_cache_misses_total{relation="conf"}`); v != 1 {
		t.Errorf("toorjah_cache_misses_total{conf} = %v, want 1", v)
	}
}

// TestMetricsConcurrentWithQueries hammers /query and /metrics together —
// run under -race this is the torn-read audit of the whole scrape path; in
// any mode the final scrape must still satisfy every format invariant.
func TestMetricsConcurrentWithQueries(t *testing.T) {
	sys, _ := newTestSystem(t, toorjah.WithCache(toorjah.CacheOptions{}))
	srv := New(sys, toorjah.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers, rounds = 4, 8
	q := ts.URL + "/query?q=" + strings.ReplaceAll(pubQuery, " ", "%20")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				queryNDJSON(t, q)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				checkExposition(t, scrapeMetrics(t, ts.URL))
			}
		}()
	}
	wg.Wait()

	body := scrapeMetrics(t, ts.URL)
	checkExposition(t, body)
	if got := metricValue(t, body, "toorjah_queries_served_total"); got != workers*rounds {
		t.Errorf("queries_served_total = %v, want %d", got, workers*rounds)
	}
	if got := metricValue(t, body, `toorjah_query_duration_seconds_count{executor="pipelined"}`); got != workers*rounds {
		t.Errorf("query duration count = %v, want %d", got, workers*rounds)
	}
}

// findSpans walks a span tree depth-first collecting every span of a name.
func findSpans(s obs.SpanJSON, name string) []obs.SpanJSON {
	var out []obs.SpanJSON
	if s.Name == name {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = append(out, findSpans(c, name)...)
	}
	return out
}

// syncBuffer is a mutex-guarded bytes.Buffer for capturing a peer's log
// from a concurrent server.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestFederatedTraceStitching is the cross-node tracing acceptance test: a
// front node answers ?trace=1 over a relation sourced from a peer; the
// returned span tree must contain a remote-probe span attributed with the
// query's trace ID, and the peer's own query log must record a probe with
// that same ID (the stitch point between the two nodes' logs).
func TestFederatedTraceStitching(t *testing.T) {
	sch := schema.MustParse(pubSchemaText)
	db := pubDatabase(t, sch)
	revOnly := []*schema.Relation{sch.Relation("rev")}
	peerSys := toorjah.NewSystem(schema.MustNew(revOnly...))
	if err := peerSys.BindDatabase(subDatabase(t, db, revOnly)); err != nil {
		t.Fatal(err)
	}
	peerSrv := New(peerSys, toorjah.Options{})
	var peerLog syncBuffer
	peerSrv.queryLog = obs.NewQueryLog(slog.New(slog.NewTextHandler(&peerLog, nil)), 0)
	peer := httptest.NewServer(peerSrv.Handler())
	defer peer.Close()

	front := toorjah.NewSystem(sch.Clone(),
		toorjah.WithCache(toorjah.CacheOptions{}),
		toorjah.WithRemoteOptions(fastRemote()))
	if err := front.BindDatabase(subDatabase(t, db,
		[]*schema.Relation{sch.Relation("pub1"), sch.Relation("conf")})); err != nil {
		t.Fatal(err)
	}
	if err := front.AttachRemote(context.Background(), peer.URL+"=rev"); err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(New(front, toorjah.Options{}).Handler())
	defer fsrv.Close()

	answers, done := queryNDJSON(t,
		fsrv.URL+"/query?trace=1&q="+strings.ReplaceAll(pubQuery, " ", "%20"))
	if strings.Join(answers, ";") != "alice" {
		t.Fatalf("federated answers = %v, want alice", answers)
	}
	if done.TraceID == "" {
		t.Fatal("done line carries no trace_id")
	}
	if done.Trace == nil {
		t.Fatal("?trace=1 returned no span tree")
	}
	if done.Trace.Name != "query" {
		t.Errorf("root span = %q, want query", done.Trace.Name)
	}
	remoteSpans := findSpans(*done.Trace, "remote-probe")
	if len(remoteSpans) == 0 {
		t.Fatalf("no remote-probe span in trace: %+v", done.Trace)
	}
	for _, sp := range remoteSpans {
		if id, _ := sp.Attrs["trace_id"].(string); id != done.TraceID {
			t.Errorf("remote-probe span trace_id = %v, want %s", sp.Attrs["trace_id"], done.TraceID)
		}
		if rel, _ := sp.Attrs["relation"].(string); rel != "rev" {
			t.Errorf("remote-probe span relation = %v, want rev", sp.Attrs["relation"])
		}
	}
	// The trace also shows the local execution structure under the root.
	if len(findSpans(*done.Trace, "probe")) == 0 {
		t.Error("no probe span in trace")
	}

	// The stitch: the peer logged the served probe under the same ID.
	if lg := peerLog.String(); !strings.Contains(lg, done.TraceID) {
		t.Errorf("peer query log does not mention trace %s:\n%s", done.TraceID, lg)
	} else if !strings.Contains(lg, "msg=probe") {
		t.Errorf("peer query log has no probe record:\n%s", lg)
	}

	// An untraced query still gets a trace ID but no span tree.
	_, plain := queryNDJSON(t, fsrv.URL+"/query?q="+strings.ReplaceAll(pubQuery, " ", "%20"))
	if plain.TraceID == "" || plain.Trace != nil {
		t.Errorf("untraced query: trace_id=%q trace=%v, want id only", plain.TraceID, plain.Trace)
	}
	if plain.TraceID == done.TraceID {
		t.Error("two queries shared one trace ID")
	}
}

// pubDatabase materializes the shared pub fixture as a storage database.
func pubDatabase(t *testing.T, sch *schema.Schema) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	for name, rows := range pubRows {
		tab, err := db.Create(name, sch.Relation(name).Arity())
		if err != nil {
			t.Fatal(err)
		}
		tab.InsertAll(rows)
	}
	return db
}

// TestReadyTimeoutBoundsSlowPeer: a peer that accepts connections but never
// answers /healthz must not stall the readiness view past the configured
// timeout — the view flips to 503 with the peer marked unreachable.
func TestReadyTimeoutBoundsSlowPeer(t *testing.T) {
	sch := schema.MustParse(pubSchemaText)
	db := pubDatabase(t, sch)
	revOnly := []*schema.Relation{sch.Relation("rev")}
	hang := make(chan struct{})
	defer close(hang)
	peerURL := startToorjahd(t, revOnly, subDatabase(t, db, revOnly),
		func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/healthz") {
					select { // hold the request until the test ends
					case <-hang:
					case <-r.Context().Done():
					}
					return
				}
				h.ServeHTTP(w, r)
			})
		})

	front := toorjah.NewSystem(sch.Clone(), toorjah.WithRemoteOptions(fastRemote()))
	if err := front.BindDatabase(subDatabase(t, db,
		[]*schema.Relation{sch.Relation("pub1"), sch.Relation("conf")})); err != nil {
		t.Fatal(err)
	}
	if err := front.AttachRemote(context.Background(), peerURL+"=rev"); err != nil {
		t.Fatal(err)
	}
	fsrv := New(front, toorjah.Options{})
	fsrv.readyTimeout = 150 * time.Millisecond
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()

	start := time.Now()
	resp, err := http.Get(fts.URL + "/healthz?ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("hung peer: status = %d, want 503", resp.StatusCode)
	}
	if elapsed > 2*time.Second {
		t.Errorf("readiness took %v against a hung peer; -ready-timeout was %v", elapsed, fsrv.readyTimeout)
	}
}

// TestScrapeOfFullCacheEqualsSnapshot: on a node whose cache is full (65536
// entries, most of them of a relation no query touches) /metrics' cache
// families say exactly what Cache.Snapshot says — names, help texts and
// label sets pinned here — which they read from counts the cache maintains,
// not by walking its entries.
func TestScrapeOfFullCacheEqualsSnapshot(t *testing.T) {
	sys, _ := newTestSystem(t, toorjah.WithCache(toorjah.CacheOptions{}))
	ts := httptest.NewServer(New(sys, toorjah.Options{}).Handler())
	defer ts.Close()
	q := ts.URL + "/query?q=" + strings.ReplaceAll(pubQuery, " ", "%20")
	for i := 0; i < 2; i++ { // a cold run and a warm one: misses, then hits
		if answers, _ := queryNDJSON(t, q); strings.Join(answers, ";") != "alice" {
			t.Fatalf("answers = %v", answers)
		}
	}
	c := sys.AccessCache()
	keys := make([][]sym.ID, 2*65536) // twice the default capacity: every shard fills and evicts
	rows := make([][]storage.IRow, len(keys))
	for i := range keys {
		k := "o" + strconv.Itoa(i)
		keys[i] = sym.InternAll([]string{k})
		rows[i] = []storage.IRow{storage.Row{k, "v"}.Intern()}
	}
	c.MultiPutSym("other", 1, keys, rows)
	snap := c.Snapshot()
	if snap["other"].Entries < 65000 || snap["other"].Evictions == 0 || snap["conf"].Hits == 0 || snap["conf"].Misses == 0 {
		t.Fatalf("the fixture did not fill the cache: %+v", snap)
	}

	body := scrapeMetrics(t, ts.URL)
	for _, fam := range []struct {
		name, kind, help string
		field            func(toorjah.CacheStats) int64
	}{
		{"toorjah_cache_hits_total", "counter", "Accesses served from the cross-query cache, by relation.", func(st toorjah.CacheStats) int64 { return st.Hits }},
		{"toorjah_cache_misses_total", "counter", "Accesses that fell through the cross-query cache to the source, by relation.", func(st toorjah.CacheStats) int64 { return st.Misses }},
		{"toorjah_cache_coalesced_total", "counter", "Accesses merged into an identical probe already in flight (singleflight), by relation.", func(st toorjah.CacheStats) int64 { return st.Collapsed }},
		{"toorjah_cache_evictions_total", "counter", "Cache entries dropped by the LRU capacity bound, by relation.", func(st toorjah.CacheStats) int64 { return st.Evictions }},
		{"toorjah_cache_expirations_total", "counter", "Cache entries dropped by TTL expiry, by relation.", func(st toorjah.CacheStats) int64 { return st.Expirations }},
		{"toorjah_cache_entries", "gauge", "Accesses currently cached, by relation.", func(st toorjah.CacheStats) int64 { return st.Entries }},
	} {
		for _, line := range []string{"# HELP " + fam.name + " " + fam.help, "# TYPE " + fam.name + " " + fam.kind} {
			if !strings.Contains(body, line+"\n") {
				t.Errorf("/metrics lacks the line %q", line)
			}
		}
		for rel, st := range snap {
			if v := metricValue(t, body, fam.name+`{relation="`+rel+`"}`); v != float64(fam.field(st)) {
				t.Errorf("%s{%s} = %v, Snapshot says %d", fam.name, rel, v, fam.field(st))
			}
		}
		if n := strings.Count(body, "\n"+fam.name+"{"); n != len(snap) {
			t.Errorf("%s has %d series, Snapshot %d relations", fam.name, n, len(snap))
		}
	}

}
