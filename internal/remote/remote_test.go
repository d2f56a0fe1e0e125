package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
	"toorjah/internal/storage"
)

const testSchemaText = `
r^io(A, B)
free^oo(A, B)
empty^io(A, B)
`

// access probes w with one boundary-form binding: a batch of one through
// source.ProbeStrings.
func access(w source.Wrapper, binding ...string) ([]storage.Row, error) {
	rows, err := source.ProbeStrings(context.Background(), w, [][]string{binding})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// testRegistry builds the peer-side registry the tests probe.
func testRegistry(t testing.TB) (*schema.Schema, *source.Registry) {
	t.Helper()
	sch, err := schema.Parse(testSchemaText)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	rows := map[string][]storage.Row{
		"r":    {{"a1", "b1"}, {"a1", "b2"}, {"a2", "b3"}},
		"free": {{"x", "y"}, {"z", "w"}},
	}
	for name, rs := range rows {
		tab, err := db.Create(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		tab.InsertAll(rs)
	}
	reg, err := source.FromDatabase(sch, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sch, reg
}

// fastOptions keeps every resilience delay test-sized.
func fastOptions() Options {
	return Options{
		Timeout:   2 * time.Second,
		RetryBase: time.Millisecond,
		RetryMax:  5 * time.Millisecond,
	}
}

// TestProbeRoundTrip: a batched probe over HTTP returns exactly what the
// wrapped table would, binding for binding.
func TestProbeRoundTrip(t *testing.T) {
	sch, reg := testRegistry(t)
	ts := httptest.NewServer(PeerMux(reg))
	defer ts.Close()
	c := Dial(ts.URL, fastOptions())
	defer c.Close()

	src := c.Source(sch.Relation("r"))
	bindings := [][]string{{"a1"}, {"missing"}, {"a2"}, {"a1"}}
	got, err := source.ProbeStrings(context.Background(), src, bindings)
	if err != nil {
		t.Fatal(err)
	}
	want, err := source.ProbeStrings(context.Background(), reg.Source("r"), bindings)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("remote batch has %d results, want %d", len(got), len(want))
	}
	for i := range want {
		// Compare per binding; an empty extraction may be nil on one side.
		if len(got[i])+len(want[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("binding %d: remote = %v, want %v", i, got[i], want[i])
		}
	}
	if len(got[1]) != 0 {
		t.Errorf("missing binding extracted %v, want nothing", got[1])
	}

	// Single access and a free relation's empty binding.
	rows, err := access(src, "a1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("Access(a1) = %v, want 2 rows", rows)
	}
	freeRows, err := access(c.Source(sch.Relation("free")))
	if err != nil {
		t.Fatal(err)
	}
	if len(freeRows) != 2 {
		t.Errorf("free access = %v, want 2 rows", freeRows)
	}
	// An empty source answers with no rows, not an error.
	emptyRows, err := access(c.Source(sch.Relation("empty")), "a1")
	if err != nil || len(emptyRows) != 0 {
		t.Errorf("empty access = %v, %v", emptyRows, err)
	}

	tel := c.Telemetry()
	if tel["r"].RoundTrips != 2 || tel["r"].Retries != 0 {
		t.Errorf("telemetry for r = %+v, want 2 clean round trips", tel["r"])
	}
	if tel["r"].LatencyMS <= 0 {
		t.Errorf("telemetry latency = %v, want > 0", tel["r"].LatencyMS)
	}
}

// TestHandlerRejects: the server side enforces the protocol — method, body
// and binding caps, unknown relations, arity mismatches.
func TestHandlerRejects(t *testing.T) {
	_, reg := testRegistry(t)
	h := NewHandler(reg.Source)
	h.MaxBindings = 2
	h.MaxRequestBytes = 256

	post := func(body string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/probe", strings.NewReader(body)))
		return w
	}
	if w := post(`{"relation":"nope","bindings":[["a"]]}`); w.Code != http.StatusNotFound {
		t.Errorf("unknown relation: status %d, want 404", w.Code)
	}
	if w := post(`{"relation":"r","bindings":[["a","b"]]}`); w.Code != http.StatusBadRequest {
		t.Errorf("bad arity: status %d, want 400", w.Code)
	}
	if w := post(`{"relation":"r","bindings":[["a"],["b"],["c"]]}`); w.Code != http.StatusBadRequest {
		t.Errorf("binding cap: status %d, want 400", w.Code)
	}
	if w := post(`{"relation":"r","bindings":[["` + strings.Repeat("x", 300) + `"]]}`); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("body cap: status %d, want 413", w.Code)
	}
	if w := post("not json"); w.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", w.Code)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/probe", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", w.Code)
	}
}

// flakyPeer wraps a peer so its first fail /probe requests are answered by
// failWith instead; everything else passes through.
func flakyPeer(inner http.Handler, fail int, failWith http.HandlerFunc) (http.Handler, *atomic.Int64) {
	var probes atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/probe" {
			n := probes.Add(1)
			if n <= int64(fail) {
				failWith(w, r)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}), &probes
}

// TestRetryAfter5xx: transient server failures are retried with backoff and
// the probe succeeds; telemetry reports the extra round trips.
func TestRetryAfter5xx(t *testing.T) {
	sch, reg := testRegistry(t)
	h, probes := flakyPeer(PeerMux(reg), 2, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "catching my breath", http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := Dial(ts.URL, fastOptions())
	defer c.Close()

	rows, err := access(c.Source(sch.Relation("r")), "a1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %v, want 2", rows)
	}
	if got := probes.Load(); got != 3 {
		t.Errorf("server saw %d probes, want 3 (2 failures + success)", got)
	}
	tel := c.Telemetry()["r"]
	if tel.RoundTrips != 3 || tel.Retries != 2 {
		t.Errorf("telemetry = %+v, want 3 round trips, 2 retries", tel)
	}
}

// TestRetryAfterTruncatedStream: a stream that dies before its done frame
// is retried, not trusted.
func TestRetryAfterTruncatedStream(t *testing.T) {
	sch, reg := testRegistry(t)
	h, _ := flakyPeer(PeerMux(reg), 1, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(`{"b":0,"row":["a1","b1"]}` + "\n")) // no done frame
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := Dial(ts.URL, fastOptions())
	defer c.Close()

	rows, err := access(c.Source(sch.Relation("r")), "a1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %v, want the full extraction after the retry", rows)
	}
	if tel := c.Telemetry()["r"]; tel.Retries != 1 {
		t.Errorf("telemetry = %+v, want 1 retry", tel)
	}
}

// TestRetryAfterTimeout: an attempt that exceeds the per-attempt timeout is
// cut off and retried.
func TestRetryAfterTimeout(t *testing.T) {
	sch, reg := testRegistry(t)
	h, _ := flakyPeer(PeerMux(reg), 1, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	opts := fastOptions()
	opts.Timeout = 50 * time.Millisecond
	c := Dial(ts.URL, opts)
	defer c.Close()

	rows, err := access(c.Source(sch.Relation("r")), "a1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %v, want 2 after the timeout retry", rows)
	}
}

// TestNoRetryOn4xx: client errors are final — one round trip, no retries.
func TestNoRetryOn4xx(t *testing.T) {
	_, reg := testRegistry(t)
	ts := httptest.NewServer(PeerMux(reg))
	defer ts.Close()
	c := Dial(ts.URL, fastOptions())
	defer c.Close()

	_, err := c.Probe(context.Background(), "nope", [][]string{{"a"}})
	if err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("err = %v, want unknown relation", err)
	}
	if tel := c.Telemetry()["nope"]; tel.RoundTrips != 1 || tel.Retries != 0 {
		t.Errorf("telemetry = %+v, want exactly one round trip", tel)
	}
}

// TestResponseSizeLimit: an oversized extraction is an error, not an
// unbounded read — and not retried, since it would exceed again.
func TestResponseSizeLimit(t *testing.T) {
	sch, reg := testRegistry(t)
	ts := httptest.NewServer(PeerMux(reg))
	defer ts.Close()
	opts := fastOptions()
	opts.MaxResponseBytes = 16
	c := Dial(ts.URL, opts)
	defer c.Close()

	_, err := access(c.Source(sch.Relation("r")), "a1")
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want a size-limit error", err)
	}
	if tel := c.Telemetry()["r"]; tel.RoundTrips != 1 {
		t.Errorf("telemetry = %+v, want no retry of an oversized response", tel)
	}
}

// TestBreaker: repeated failures open the relation's circuit — probes then
// fail fast without touching the peer — and after the cooldown a half-open
// trial closes it again.
func TestBreaker(t *testing.T) {
	sch, reg := testRegistry(t)
	var broken atomic.Bool
	broken.Store(true)
	var probes atomic.Int64
	inner := PeerMux(reg)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/probe" {
			probes.Add(1)
			if broken.Load() {
				http.Error(w, "down", http.StatusInternalServerError)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	opts := fastOptions()
	opts.MaxRetries = -1 // isolate the breaker from the retry loop
	opts.BreakerThreshold = 2
	opts.BreakerCooldown = 50 * time.Millisecond
	c := Dial(ts.URL, opts)
	defer c.Close()
	src := c.Source(sch.Relation("r"))

	for i := 0; i < 2; i++ {
		if _, err := access(src, "a1"); err == nil {
			t.Fatalf("probe %d: err = nil, want failure", i)
		}
	}
	// Threshold reached: the circuit is open, probes fail fast.
	_, err := access(src, "a1")
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if got := probes.Load(); got != 2 {
		t.Errorf("peer saw %d probes, want 2 (open circuit fails fast)", got)
	}
	if tel := c.Telemetry()["r"]; tel.BreakerOpens != 1 {
		t.Errorf("telemetry = %+v, want 1 breaker open", tel)
	}

	// Other relations of the same peer are unaffected.
	if _, err := access(c.Source(sch.Relation("free"))); err == nil {
		t.Error("free: the peer is down, want a real probe failure, got success") // still broken
	}

	// After the cooldown the half-open trial goes through; the peer has
	// recovered, so the circuit closes and stays closed.
	broken.Store(false)
	time.Sleep(60 * time.Millisecond)
	for i := 0; i < 3; i++ {
		rows, err := access(src, "a1")
		if err != nil {
			t.Fatalf("post-recovery probe %d: %v", i, err)
		}
		if len(rows) != 2 {
			t.Fatalf("post-recovery rows = %v", rows)
		}
	}
	if tel := c.Telemetry()["r"]; tel.BreakerOpens != 1 {
		t.Errorf("telemetry after recovery = %+v, want still 1 open", tel)
	}
}

// TestBreakerReopensOnFailedTrial: a failed half-open trial re-opens the
// circuit immediately.
func TestBreakerReopensOnFailedTrial(t *testing.T) {
	sch, reg := testRegistry(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down for good", http.StatusInternalServerError)
	}))
	defer ts.Close()
	_ = reg

	opts := fastOptions()
	opts.MaxRetries = -1
	opts.BreakerThreshold = 1
	opts.BreakerCooldown = 30 * time.Millisecond
	c := Dial(ts.URL, opts)
	defer c.Close()
	src := c.Source(sch.Relation("r"))

	if _, err := access(src, "a1"); err == nil {
		t.Fatal("want failure")
	}
	time.Sleep(40 * time.Millisecond)
	if _, err := access(src, "a1"); errors.Is(err, ErrBreakerOpen) || err == nil {
		t.Fatalf("half-open trial: err = %v, want the real probe failure", err)
	}
	// The failed trial re-opened the circuit.
	_, err := access(src, "a1")
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("after failed trial: err = %v, want ErrBreakerOpen", err)
	}
	if tel := c.Telemetry()["r"]; tel.BreakerOpens != 2 {
		t.Errorf("telemetry = %+v, want 2 opens", tel)
	}
}

// TestSoundnessGuard: rows that contradict the probe's binding or the
// relation's arity are an error, never answers.
func TestSoundnessGuard(t *testing.T) {
	sch, _ := testRegistry(t)
	serve := func(lines ...string) *Client {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			for _, l := range lines {
				w.Write([]byte(l + "\n"))
			}
		}))
		t.Cleanup(ts.Close)
		c := Dial(ts.URL, fastOptions())
		t.Cleanup(c.Close)
		return c
	}
	// Wrong arity.
	c := serve(`{"b":0,"row":["a1","b1","extra"]}`, `{"done":true,"accesses":1,"tuples":1}`)
	if _, err := access(c.Source(sch.Relation("r")), "a1"); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Errorf("wrong arity: err = %v", err)
	}
	// Row not matching the input binding.
	c = serve(`{"b":0,"row":["other","b1"]}`, `{"done":true,"accesses":1,"tuples":1}`)
	if _, err := access(c.Source(sch.Relation("r")), "a1"); err == nil || !strings.Contains(err.Error(), "binding") {
		t.Errorf("binding mismatch: err = %v", err)
	}
}

// TestFetchSchemaAndAttach: discovery parses the peer's /schema and Attach
// verifies each attached relation against the local declaration.
func TestFetchSchemaAndAttach(t *testing.T) {
	_, reg := testRegistry(t)
	ts := httptest.NewServer(PeerMux(reg))
	defer ts.Close()
	c := Dial(ts.URL, fastOptions())
	defer c.Close()

	peer, err := c.FetchSchema(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !peer.Has("r") || !peer.Has("free") || peer.Relation("r").String() != "r^io(A,B)" {
		t.Fatalf("discovered schema = %s", peer)
	}

	// The local node declares a superset; the list names what to attach.
	local := schema.MustParse(testSchemaText + "\nlocalonly^o(C)")
	srcs, err := AttachDiscovered(c, local, peer, []string{"empty", "free", "r"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range srcs {
		names = append(names, s.Relation().Name)
	}
	if got := strings.Join(names, ","); got != "empty,free,r" {
		t.Errorf("attached %s, want empty,free,r", got)
	}

	// Explicit list: a relation the peer does not serve is an error.
	if _, err := AttachDiscovered(c, local, peer, []string{"localonly"}); err == nil {
		t.Error("attaching a relation the peer lacks: want error")
	}
	// A declaration mismatch is an error.
	mismatched := schema.MustParse("r^oi(A, B)\nfree^oo(A, B)\nempty^io(A, B)")
	if _, err := AttachDiscovered(c, mismatched, peer, []string{"r"}); err == nil || !strings.Contains(err.Error(), "declared as") {
		t.Errorf("pattern mismatch: err = %v", err)
	}
	// An empty list is an error: choosing for a bare address is the
	// façade's rule (TestBareAttachDoesNotShadowLocalData).
	for _, none := range [][]string{nil, {}} {
		if _, err := AttachDiscovered(c, local, peer, none); err == nil {
			t.Errorf("relations %#v: want error", none)
		}
	}
}

// TestParseAttachSpec covers the -remote flag syntax.
func TestParseAttachSpec(t *testing.T) {
	cases := []struct {
		in      string
		base    string
		rels    string
		wantErr bool
	}{
		{"http://h:1=r1,r2", "http://h:1", "r1,r2", false},
		{"http://h:1", "http://h:1", "", false},
		{"h:1=r1", "http://h:1", "r1", false},
		{"https://h:1/", "https://h:1/", "", false},
		{"http://h:1=", "", "", true},
		{"=r1", "", "", true},
		{"", "", "", true},
	}
	for _, c := range cases {
		spec, err := ParseAttachSpec(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseAttachSpec(%q): err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if spec.Base != c.base || strings.Join(spec.Relations, ",") != c.rels {
			t.Errorf("ParseAttachSpec(%q) = %+v, want base %q rels %q", c.in, spec, c.base, c.rels)
		}
	}
}

// TestHealthy: reachability reflects the peer's state.
func TestHealthy(t *testing.T) {
	_, reg := testRegistry(t)
	ts := httptest.NewServer(PeerMux(reg))
	c := Dial(ts.URL, fastOptions())
	defer c.Close()
	if err := c.Healthy(context.Background()); err != nil {
		t.Errorf("healthy peer: %v", err)
	}
	ts.Close()
	if err := c.Healthy(context.Background()); err == nil {
		t.Error("closed peer reported healthy")
	}
}

// TestHandlerRecord: the Record hook observes served probes.
func TestHandlerRecord(t *testing.T) {
	sch, reg := testRegistry(t)
	h := NewHandler(reg.Source)
	type rec struct {
		rel              string
		accesses, tuples int
	}
	var recs []rec
	h.Record = func(p ProbeRecord) {
		recs = append(recs, rec{p.Relation, p.Accesses, p.Tuples})
	}
	mux := http.NewServeMux()
	mux.Handle("/probe", h)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := Dial(ts.URL, fastOptions())
	defer c.Close()

	if _, err := source.ProbeStrings(context.Background(), c.Source(sch.Relation("r")), [][]string{{"a1"}, {"a2"}}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != (rec{"r", 2, 3}) {
		t.Errorf("recorded %+v, want one probe of 2 accesses / 3 tuples", recs)
	}
}

// TestEpochPropagation: /schema advertises per-relation epochs, probe done
// frames carry them, the client's telemetry tracks the last observed epoch
// and counts changes (stale-peer-snapshot detections), and the remote
// source reports the epoch so a local cache can key entries by it.
func TestEpochPropagation(t *testing.T) {
	sch, reg := testRegistry(t)
	srv := httptest.NewServer(PeerMux(reg))
	defer srv.Close()

	c := Dial(srv.URL, Options{})
	defer c.Close()
	peer, err := c.FetchSchema(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if peer.Len() != sch.Len() {
		t.Fatalf("peer schema has %d relations, want %d", peer.Len(), sch.Len())
	}
	src := c.Source(peer.Relation("r"))

	// Seeded from /schema before any probe: the backing table loaded one
	// batch, so it sits at epoch 2 ("empty" never advanced past 1).
	if e := source.EpochOf(src); e != 2 {
		t.Errorf("epoch after schema discovery = %d, want 2", e)
	}

	if _, err := access(src, "a1"); err != nil {
		t.Fatal(err)
	}
	tel := c.Telemetry()["r"]
	if tel.Epoch != 2 || tel.EpochChanges != 0 {
		t.Errorf("telemetry after first probe = %+v, want epoch 2, no changes", tel)
	}

	// The peer ingests: the next done frame advertises the new epoch and
	// the client counts one stale-snapshot detection.
	tab := reg.Source("r").(*source.TableSource).Table()
	tab.InsertAll([]storage.Row{{"a1", "b9"}})
	rows, err := access(src, "a1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("post-ingest probe rows = %v, want 3", rows)
	}
	tel = c.Telemetry()["r"]
	if tel.Epoch != 3 || tel.EpochChanges != 1 {
		t.Errorf("telemetry after peer ingest = %+v, want epoch 3 and 1 change", tel)
	}
	if e := source.EpochOf(src); e != 3 {
		t.Errorf("source epoch after peer ingest = %d, want 3", e)
	}
}

// TestSchemaEpochRoundTrip: the "# epoch" lines survive formatting and
// parsing, and plain schema parsers ignore them.
func TestSchemaEpochRoundTrip(t *testing.T) {
	var b strings.Builder
	b.WriteString("r^io(A, B)\n")
	AppendSchemaEpochs(&b, map[string]uint64{"r": 7, "unversioned": 0})
	got := ParseSchemaEpochs(b.String())
	if len(got) != 1 || got["r"] != 7 {
		t.Errorf("ParseSchemaEpochs = %v, want map[r:7]", got)
	}
	if _, err := schema.Parse(b.String()); err != nil {
		t.Errorf("epoch lines break schema.Parse: %v", err)
	}
	if got := ParseSchemaEpochs("# epoch bad\n# epoch x notanumber\n"); len(got) != 0 {
		t.Errorf("malformed epoch lines parsed: %v", got)
	}
}

// TestProbeContract runs source.Wrapper's contract test over a remote
// source against a live peer: the decoded rows land in the caller's slots,
// a binding the peer has nothing for leaves nil, and a batch this side can
// refuse never reaches the peer.
func TestProbeContract(t *testing.T) {
	f := sourcetest.New(t)
	peer := sourcetest.NewCounter(f.Source, false)
	reg := source.NewRegistry()
	reg.Bind(peer)
	ts := httptest.NewServer(PeerMux(reg))
	defer ts.Close()
	c := Dial(ts.URL, fastOptions())
	defer c.Close()

	f.Contract(t, c.Source(f.Rel), func() int { return peer.Stats().Accesses })
	if got := c.Telemetry()["r"].RoundTrips; got != 2 {
		t.Errorf("the contract's two batches made %d round trips", got)
	}
}
