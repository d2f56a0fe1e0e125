package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"toorjah"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
	"toorjah/internal/storage"
)

const pubSchemaText = `
pub1^io(Paper, Person)
conf^ooo(Paper, ConfName, Year)
rev^ooi(Person, ConfName, Year)
`

var pubRows = map[string][]storage.Row{
	"pub1": {{"p1", "alice"}, {"p2", "bob"}},
	"conf": {{"p1", "icde", "y2008"}, {"p2", "vldb", "y2007"}},
	"rev":  {{"alice", "icde", "y2008"}},
}

const pubQuery = "q(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)"

// newTestSystem builds a cached System over Counter-wrapped table sources,
// so the counters observe exactly the probes that reach the tables through
// the shared cache.
func newTestSystem(t *testing.T, opts ...toorjah.SystemOption) (*toorjah.System, map[string]*sourcetest.Counter) {
	t.Helper()
	sch, err := schema.Parse(pubSchemaText)
	if err != nil {
		t.Fatal(err)
	}
	sys := toorjah.NewSystem(sch, opts...)
	counters := make(map[string]*sourcetest.Counter)
	for _, rel := range sch.Relations() {
		tab := storage.NewTable(rel.Name, rel.Arity())
		tab.InsertAll(pubRows[rel.Name])
		src, err := source.NewTableSource(rel, tab)
		if err != nil {
			t.Fatal(err)
		}
		ctr := sourcetest.NewCounter(src, true)
		counters[rel.Name] = ctr
		sys.Bind(ctr)
	}
	return sys, counters
}

// queryNDJSON issues one /query request and decodes the stream.
func queryNDJSON(t *testing.T, url string) (answers []string, done doneLine) {
	t.Helper()
	rows, done, err := readNDJSON(http.DefaultClient, url)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		answers = append(answers, strings.Join(r, ","))
	}
	return answers, done
}

// readNDJSON is queryNDJSON for a caller that must not stop the test (a
// client goroutine): a non-200 status, an in-band error, a bad line or a
// stream without a done line is returned as the error, beside the answer
// rows that arrived before it.
func readNDJSON(client *http.Client, url string) (rows []storage.Row, done doneLine, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, done, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, done, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var e errorLine
		if json.Unmarshal(line, &e) == nil && e.Error != "" {
			return rows, done, fmt.Errorf("in-band error: %s", e.Error)
		}
		var d doneLine
		if json.Unmarshal(line, &d) == nil && d.Done {
			done = d
			continue
		}
		var a answerLine
		if err := json.Unmarshal(line, &a); err != nil {
			return rows, done, fmt.Errorf("bad NDJSON line %q: %v", line, err)
		}
		if a.Answer != nil {
			rows = append(rows, a.Answer)
		}
	}
	if err := sc.Err(); err != nil {
		return rows, done, err
	}
	if !done.Done {
		return rows, done, fmt.Errorf("stream ended without a done line")
	}
	return rows, done, nil
}

// TestServerConcurrentQueriesShareCache is the service acceptance property:
// several concurrent streaming queries share one access cache with correct
// answers, each distinct access reaches the tables at most once, and a
// later identical query probes nothing at all.
func TestServerConcurrentQueriesShareCache(t *testing.T) {
	// Uncached baseline: the expected answers and access count of one run.
	baseSys, _ := newTestSystem(t)
	baseQ, err := baseSys.Prepare(pubQuery)
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseQ.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantAnswers := strings.Join(base.SortedAnswers(), ";")
	if wantAnswers != "alice" {
		t.Fatalf("baseline answers = %q", wantAnswers)
	}

	sys, counters := newTestSystem(t, toorjah.WithCache(toorjah.CacheOptions{}))
	srv := New(sys, toorjah.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/query?q=" + strings.ReplaceAll(pubQuery, " ", "%20")

	const G = 4
	var wg sync.WaitGroup
	got := make([]string, G)
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers, _ := queryNDJSON(t, url)
			got[i] = strings.Join(answers, ";")
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != wantAnswers {
			t.Errorf("request %d: answers = %q, want %q", i, g, wantAnswers)
		}
	}
	// Singleflight + sharing: no distinct access ever hit a table twice,
	// and the G concurrent runs together probed no more than one uncached
	// run would.
	underlying := 0
	for rel, ctr := range counters {
		st := ctr.Stats()
		if st.Accesses != ctr.DistinctAccesses() {
			t.Errorf("%s: %d accesses for %d distinct bindings (some probed twice)",
				rel, st.Accesses, ctr.DistinctAccesses())
		}
		underlying += st.Accesses
	}
	if underlying > base.TotalAccesses() {
		t.Errorf("concurrent cached runs probed %d times, uncached baseline needs %d",
			underlying, base.TotalAccesses())
	}

	// A later identical query is served entirely from the cache.
	answers, done := queryNDJSON(t, url)
	if strings.Join(answers, ";") != wantAnswers {
		t.Errorf("warm answers = %v", answers)
	}
	if done.Accesses != 0 {
		t.Errorf("warm request made %d source probes, want 0", done.Accesses)
	}
	after := 0
	for _, ctr := range counters {
		after += ctr.Stats().Accesses
	}
	if after != underlying {
		t.Errorf("warm request grew underlying probes %d -> %d", underlying, after)
	}

	// /metrics reflects the shared cache and the warm plan, and the
	// toorjah_source_* families accumulate per-relation accounting across
	// queries: the cold runs probed every relation, round trips never exceed
	// accesses, and the accesses are what the counters saw.
	body := scrapeMetrics(t, ts.URL)
	hits, accesses := 0.0, 0.0
	for rel, ctr := range counters {
		hits += metricValue(t, body, `toorjah_cache_hits_total{relation="`+rel+`"}`)
		a := metricValue(t, body, `toorjah_source_accesses_total{relation="`+rel+`"}`)
		if b := metricValue(t, body, `toorjah_source_round_trips_total{relation="`+rel+`"}`); b == 0 || b > a {
			t.Errorf("%s: %v round trips for %v accesses", rel, b, a)
		}
		if a != float64(ctr.Stats().Accesses) {
			t.Errorf("%s: toorjah_source_accesses_total = %v, its counter saw %d", rel, a, ctr.Stats().Accesses)
		}
		accesses += a
	}
	if hits == 0 {
		t.Error("toorjah_cache_hits_total is 0 after a warm query")
	}
	if accesses != float64(underlying) {
		t.Errorf("toorjah_source_accesses_total sums to %v, counters saw %d", accesses, underlying)
	}
	if got := metricValue(t, body, "toorjah_prepared_plans"); got != 1 {
		t.Errorf("prepared plans = %v, want 1", got)
	}
	if got := metricValue(t, body, "toorjah_queries_served_total"); got != G+1 {
		t.Errorf("queries served = %v, want %d", got, G+1)
	}
}

func TestServerEndpoints(t *testing.T) {
	sys, _ := newTestSystem(t, toorjah.WithCache(toorjah.CacheOptions{}))
	srv := New(sys, toorjah.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// POST body form of /query.
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(pubQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"alice"`) {
		t.Errorf("POST /query: status %d body %s", resp.StatusCode, body)
	}

	// Malformed query: a client error, not a stream.
	resp, err = http.Get(ts.URL + "/query?q=" + "not%20a%20query")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed query: status %d, want 400", resp.StatusCode)
	}

	// Empty query.
	resp, err = http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty query: status %d, want 400", resp.StatusCode)
	}

	// /schema and /healthz.
	resp, err = http.Get(ts.URL + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, rel := range []string{"pub1", "conf", "rev"} {
		if !strings.Contains(string(body), rel) {
			t.Errorf("/schema missing %s: %s", rel, body)
		}
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %q", body)
	}

	// /metrics is the node's one read-out.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /stats: status %d, want 404", resp.StatusCode)
	}
}

// pubUCQ unions two overlapping disjuncts: both derive alice through
// different first atoms, so the stream must deduplicate across disjuncts.
const pubUCQ = "q(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)\nq(R) :- pub1(P, R), rev(R, icde, y2008)"

// TestServerUCQStream: a multi-line query streams as a UCQ — deduplicated
// NDJSON answers, a summary carrying merged accesses/batches/tuples and the
// disjunct count — and /metrics counts the union.
func TestServerUCQStream(t *testing.T) {
	sys, counters := newTestSystem(t, toorjah.WithCache(toorjah.CacheOptions{}))
	srv := New(sys, toorjah.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(pubUCQ))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var answers []string
	var done doneLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var e errorLine
		if json.Unmarshal(line, &e) == nil && e.Error != "" {
			t.Fatalf("in-band error: %s", e.Error)
		}
		var d doneLine
		if json.Unmarshal(line, &d) == nil && d.Done {
			done = d
			continue
		}
		var a answerLine
		if err := json.Unmarshal(line, &a); err == nil && a.Answer != nil {
			answers = append(answers, strings.Join(a.Answer, ","))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(answers, ";"); got != "alice" {
		t.Errorf("streamed answers = %q, want exactly one deduplicated alice", got)
	}
	if !done.Done || done.Answers != 1 || done.Disjuncts != 2 {
		t.Errorf("done = %+v, want answers=1 disjuncts=2", done)
	}
	if done.Truncated {
		t.Errorf("complete UCQ marked truncated: %+v", done)
	}
	if done.Accesses == 0 || done.Batches == 0 || done.Batches > done.Accesses {
		t.Errorf("summary accounting wrong: %+v", done)
	}
	// The summary's access count is the probes that reached the tables.
	under := 0
	for _, ctr := range counters {
		under += ctr.Stats().Accesses
	}
	if done.Accesses != under {
		t.Errorf("summary reports %d accesses, tables saw %d", done.Accesses, under)
	}

	// /metrics counts the union among the served queries.
	body := scrapeMetrics(t, ts.URL)
	if served, ucqs := metricValue(t, body, "toorjah_queries_served_total"), metricValue(t, body, "toorjah_ucqs_served_total"); served != 1 || ucqs != 1 {
		t.Errorf("served=%v ucqs=%v, want 1 and 1", served, ucqs)
	}
	if got := metricValue(t, body, "toorjah_prepared_plans"); got != 2 {
		t.Errorf("prepared plans = %v, want 2 (one per shape: the union's disjuncts have two)", got)
	}

	// A warm repeat of the same UCQ is served from the shared cache.
	answers2, done2 := queryNDJSON(t, ts.URL+"/query?q="+strings.ReplaceAll(strings.ReplaceAll(pubUCQ, "\n", "%0A"), " ", "%20"))
	if strings.Join(answers2, ";") != "alice" || done2.Accesses != 0 {
		t.Errorf("warm UCQ: answers=%v accesses=%d, want alice and 0", answers2, done2.Accesses)
	}
}

// TestServerQueryBodyTooLarge: an oversized POST body is rejected with 413,
// not truncated into a confusing parse error.
func TestServerQueryBodyTooLarge(t *testing.T) {
	sys, _ := newTestSystem(t)
	srv := New(sys, toorjah.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := strings.Repeat("x", maxQueryBytes+1)
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "exceeds") {
		t.Errorf("oversized body message unclear: %q", body)
	}
}

// TestServerLimit: limit=N streams exactly N answers and flags the cut,
// even when one access delivers them all in a single burst.
func TestServerLimit(t *testing.T) {
	sch, err := schema.Parse("r^o(A)")
	if err != nil {
		t.Fatal(err)
	}
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	var rows []toorjah.Row
	for i := 0; i < 50; i++ {
		rows = append(rows, toorjah.Row{fmt.Sprintf("v%02d", i)})
	}
	if err := sys.BindRows("r", rows...); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, toorjah.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	answers, done := queryNDJSON(t, ts.URL+"/query?limit=3&q=q(X)%20:-%20r(X)")
	if len(answers) != 3 || done.Answers != 3 || !done.Truncated {
		t.Errorf("limit run: %d streamed, done=%+v; want 3 answers, truncated", len(answers), done)
	}
	// A limit the answers do not reach cuts nothing.
	answers, done = queryNDJSON(t, ts.URL+"/query?limit=50&q=q(X)%20:-%20r(X)")
	if len(answers) != 50 || done.Answers != 50 || done.Truncated {
		t.Errorf("limit = answer count: %d streamed, done=%+v; want 50 answers, not truncated", len(answers), done)
	}
}

// TestPlansAreCachedPerShape: the service keeps no plan cache of its own —
// /metrics reports the system's, which holds one plan per query
// shape however many constants and texts arrive, shared between CQs and the
// disjuncts of unions.
func TestPlansAreCachedPerShape(t *testing.T) {
	sys, _ := newTestSystem(t)
	srv := New(sys, toorjah.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	query := func(text string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"done":true`) {
			t.Fatalf("%s: status %d: %s", text, resp.StatusCode, body)
		}
	}
	for _, conf := range []string{"icde", "vldb", "'SIGMOD Record'", "icde"} {
		query("q(P) :- conf(P, " + conf + ", Y)")
	}
	query("q(P)  :-  conf( P,pods,Y )") // the same shape, spelled differently
	query("q(R) :- rev(R, C, y2008)")
	// A union whose first disjunct is the shape above and whose second is new.
	query("q(P) :- conf(P, edbt, Y)\nq(P) :- pub1(P, alice)")

	if got := sys.PlanCacheStats(); got.Shapes != 3 || got.Misses != 3 || got.Hits != 5 || got.Evictions != 0 {
		t.Errorf("plan cache = %+v, want 3 shapes from 3 misses and 5 hits", got)
	}
	metrics := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"toorjah_prepared_plans 3",
		"toorjah_plan_cache_hits_total 5",
		"toorjah_plan_cache_misses_total 3",
		"toorjah_plan_cache_evictions_total 0",
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestLoadDatabase covers the service's CSV loading path, including the
// tolerant parsing of storage.ReadCSV (BOM, blank trailing lines).
func TestLoadDatabase(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"pub1.csv": "\xef\xbb\xbfp1,alice\np2,bob\n\n",
		"conf.csv": "p1,icde,y2008\n  p2,vldb,y2007\n   \n",
		"rev.csv":  "alice,icde,y2008\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sch, err := schema.Parse(pubSchemaText)
	if err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(sch, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Table("pub1").Snapshot().Len(); got != 2 {
		t.Errorf("pub1 rows = %d, want 2", got)
	}
	if got := db.Table("conf").Snapshot().Len(); got != 2 {
		t.Errorf("conf rows = %d, want 2", got)
	}

	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{TTL: time.Minute}))
	if err := sys.BindDatabase(db); err != nil {
		t.Fatal(err)
	}
	q, err := sys.Prepare(pubQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.SortedAnswers(), ";"); got != "alice" {
		t.Errorf("answers = %q, want alice", got)
	}
}

// TestServerIngest: rows POSTed to /ingest become visible to the next
// /query through the shared cache with no rebind, /metrics reports the
// relation's epoch, rows, modification time and what was ingested into it,
// and malformed or oversized bodies
// are rejected without applying anything.
func TestServerIngest(t *testing.T) {
	// Plain table bindings (no Counter decorators): ingestion needs the
	// live tables reachable behind the sources, as in the real server.
	sch := schema.MustParse(pubSchemaText)
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	for rel, rows := range pubRows {
		if err := sys.BindRows(rel, rows...); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(sys, toorjah.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queryURL := ts.URL + "/query?q=" + strings.ReplaceAll(pubQuery, " ", "%20")
	if answers, _ := queryNDJSON(t, queryURL); strings.Join(answers, ";") != "alice" {
		t.Fatalf("cold query = %v, want alice", answers)
	}

	// carol reviews icde'08 and publishes p9 there: two single-batch ingests.
	post := func(path, body string) *http.Response {
		resp, err := http.Post(ts.URL+path, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post("/ingest?relation=rev", "[\"carol\",\"icde\",\"y2008\"]\n")
	var ing struct {
		Applied int    `json:"applied"`
		Epoch   uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ing.Applied != 1 || ing.Epoch < 2 {
		t.Fatalf("ingest rev: status=%d resp=%+v", resp.StatusCode, ing)
	}
	resp = post("/ingest?relation=pub1", "[\"p9\",\"carol\"]\n")
	resp.Body.Close()
	resp = post("/ingest?relation=conf", "[\"p9\",\"icde\",\"y2008\"]\n")
	resp.Body.Close()

	// The warm plan now answers over the new data — same prepared plan, no
	// rebind, straight through the shared cache.
	answers, _ := queryNDJSON(t, queryURL)
	sort.Strings(answers)
	if strings.Join(answers, ";") != "alice;carol" {
		t.Fatalf("post-ingest query = %v, want alice;carol", answers)
	}

	// Deleting the review removes carol again.
	deleting := time.Now()
	resp = post("/ingest?relation=rev&op=delete", "[\"carol\",\"icde\",\"y2008\"]\n")
	resp.Body.Close()
	if answers, _ := queryNDJSON(t, queryURL); strings.Join(answers, ";") != "alice" {
		t.Fatalf("post-delete query = %v, want alice", answers)
	}

	// /metrics: per-relation epoch, row count, modification time and ingest
	// accounting.
	body := scrapeMetrics(t, ts.URL)
	for series, want := range map[string]float64{
		`toorjah_ingests_served_total{relation="rev",op="insert"}`:  1,
		`toorjah_ingests_served_total{relation="rev",op="delete"}`:  1,
		`toorjah_ingests_served_total{relation="pub1",op="insert"}`: 1,
		`toorjah_ingests_served_total{relation="conf",op="insert"}`: 1,
		`toorjah_ingest_rows_total{relation="rev",op="insert"}`:     1,
		`toorjah_ingest_rows_total{relation="rev",op="delete"}`:     1,
		`toorjah_relation_rows{relation="rev"}`:                     1,
	} {
		if got := metricValue(t, body, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if got := metricValue(t, body, `toorjah_relation_epoch{relation="rev"}`); got < 3 {
		t.Errorf("rev epoch = %v, want 3 or more", got)
	}
	if got, want := metricValue(t, body, `toorjah_relation_modified_timestamp_seconds{relation="rev"}`), float64(deleting.UnixNano())/1e9; got < want {
		t.Errorf("rev last modified at %v, before the delete sent at %v", got, want)
	}

	// Error paths apply nothing: wrong arity, bad JSON, unknown relation,
	// bad op, oversized body.
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/ingest?relation=rev", "[\"too\",\"short\"]\n", http.StatusBadRequest},
		{"/ingest?relation=rev", "[\"nul\\u0000byte\",\"icde\",\"y2008\"]\n", http.StatusBadRequest},
		{"/ingest?relation=rev&op=delete", "[\"nul\\u0000byte\",\"icde\",\"y2008\"]\n", http.StatusBadRequest},
		{"/ingest?relation=rev", "not json\n", http.StatusBadRequest},
		{"/ingest?relation=nope", "[]\n", http.StatusNotFound},
		{"/ingest?relation=rev&op=upsert", "[]\n", http.StatusBadRequest},
	} {
		resp := post(tc.path, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("POST %s %q: status = %d, want %d", tc.path, tc.body, resp.StatusCode, tc.status)
		}
	}
	srv.maxIngestBytes = 64
	resp = post("/ingest?relation=rev", strings.Repeat("[\"x\",\"y\",\"z\"]\n", 100))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized ingest: status = %d, want 413", resp.StatusCode)
	}
	if answers, _ := queryNDJSON(t, queryURL); strings.Join(answers, ";") != "alice" {
		t.Errorf("failed ingests changed data: %v", answers)
	}
}
