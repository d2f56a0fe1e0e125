package service

// Federation tests: injected transport faults (timeouts, 5xx) must be
// retried or surfaced as errors/truncated sound subsets, never as wrong
// answers; the server-level federation surface reports what it did. That a
// node answers over peers what it answers over its own tables is
// TestOracleService's federated surface.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"toorjah"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// fastRemote keeps the resilience delays test-sized.
func fastRemote() toorjah.RemoteOptions {
	return toorjah.RemoteOptions{
		Timeout:   5 * time.Second,
		RetryBase: time.Millisecond,
		RetryMax:  10 * time.Millisecond,
	}
}

// startToorjahd runs a real toorjahd server (the full route table, /probe
// included) over the given relations and rows; wrap, when set, intercepts
// the handler for fault injection.
func startToorjahd(t *testing.T, rels []*schema.Relation, db *storage.Database, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	sch, err := schema.New(rels...)
	if err != nil {
		t.Fatal(err)
	}
	sys := toorjah.NewSystem(sch)
	if err := sys.BindDatabase(db); err != nil {
		t.Fatal(err)
	}
	h := http.Handler(New(sys, toorjah.Options{}).Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// subDatabase copies the named tables out of a full instance.
func subDatabase(t *testing.T, db *storage.Database, rels []*schema.Relation) *storage.Database {
	t.Helper()
	out := storage.NewDatabase()
	for _, rel := range rels {
		tab, err := out.Create(rel.Name, rel.Arity())
		if err != nil {
			t.Fatal(err)
		}
		if src := db.Table(rel.Name); src != nil {
			tab.InsertAll(src.Snapshot().Rows())
		}
	}
	return out
}

// execKind selects one of the three executors through the facade.
type execKind string

const (
	execFastFail  execKind = "fastfail"
	execNaive     execKind = "naive"
	execPipelined execKind = "pipelined"
)

var allExecutors = []execKind{execFastFail, execNaive, execPipelined}

// runCQ executes a prepared query with the chosen executor.
func runCQ(q *toorjah.Query, kind execKind) (*toorjah.Result, error) {
	switch kind {
	case execNaive:
		return q.Execute(context.Background(), toorjah.WithExecutor(toorjah.ExecutorNaive))
	case execPipelined:
		return q.Execute(context.Background(), toorjah.OnAnswer(func(toorjah.Tuple) {}))
	default:
		return q.Execute(context.Background())
	}
}

// compareResults asserts the federated run reproduced the local one: same
// answers, same per-relation accesses and extracted tuples. Round trips are
// not compared — batch grouping is scheduling-dependent; the access count
// is the paper's cost model and must be exact.
func compareResults(t *testing.T, label string, got, want *toorjah.Result) {
	t.Helper()
	if g, w := strings.Join(got.SortedAnswers(), ";"), strings.Join(want.SortedAnswers(), ";"); g != w {
		t.Errorf("%s: answers = %q, want %q", label, g, w)
	}
	rels := make(map[string]bool)
	for r := range got.Stats {
		rels[r] = true
	}
	for r := range want.Stats {
		rels[r] = true
	}
	for r := range rels {
		g, w := got.Stats[r], want.Stats[r]
		if g.Accesses != w.Accesses || g.Tuples != w.Tuples {
			t.Errorf("%s: relation %s: accesses/tuples = %d/%d, want %d/%d",
				label, r, g.Accesses, g.Tuples, w.Accesses, w.Tuples)
		}
	}
}

// faultingPeer wraps a node handler so /probe requests are failed while
// fail() says so.
func faultingPeer(fail func(n int64) bool, how http.HandlerFunc) (func(http.Handler) http.Handler, *atomic.Int64) {
	var probes atomic.Int64
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/probe" && fail(probes.Add(1)) {
				how(wr, r)
				return
			}
			inner.ServeHTTP(wr, r)
		})
	}, &probes
}

// TestFederationFaults: transient 5xx and timeouts on the wire are retried
// into exact answers; a hard-down peer surfaces as an error or a truncated
// sound subset — never as wrong answers.
func TestFederationFaults(t *testing.T) {
	sch := schema.MustParse(pubSchemaText)
	db := storage.NewDatabase()
	for name, rows := range pubRows {
		tab, err := db.Create(name, sch.Relation(name).Arity())
		if err != nil {
			t.Fatal(err)
		}
		tab.InsertAll(rows)
	}
	local := toorjah.NewSystem(sch)
	if err := local.BindDatabase(db); err != nil {
		t.Fatal(err)
	}
	lq, err := local.Prepare(pubQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lq.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantAnswers := want.AnswerSet()
	wantStrs := make(map[string]bool)
	for _, a := range want.SortedAnswers() {
		wantStrs[a] = true
	}

	serve503 := func(wr http.ResponseWriter, r *http.Request) {
		http.Error(wr, "injected fault", http.StatusServiceUnavailable)
	}
	hang := func(wr http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	}

	// federated builds a fresh querying node against a peer serving every
	// relation behind the given fault policy.
	federated := func(t *testing.T, wrap func(http.Handler) http.Handler, ropts toorjah.RemoteOptions) *toorjah.Query {
		t.Helper()
		url := startToorjahd(t, sch.Relations(), db, wrap)
		sys := toorjah.NewSystem(sch.Clone(), toorjah.WithRemoteOptions(ropts))
		if err := sys.AttachRemote(context.Background(), url); err != nil {
			t.Fatal(err)
		}
		q, err := sys.Prepare(pubQuery)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	t.Run("transient 5xx retried", func(t *testing.T) {
		wrap, probes := faultingPeer(func(n int64) bool { return n%3 == 1 }, serve503)
		q := federated(t, wrap, fastRemote())
		for _, kind := range allExecutors {
			res, err := runCQ(q, kind)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			compareResults(t, string(kind), res, want)
		}
		if probes.Load() == 0 {
			t.Fatal("fault injector never saw a probe")
		}
	})

	t.Run("timeouts retried", func(t *testing.T) {
		ropts := fastRemote()
		ropts.Timeout = 100 * time.Millisecond
		wrap, _ := faultingPeer(func(n int64) bool { return n%4 == 1 }, hang)
		q := federated(t, wrap, ropts)
		res, err := q.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "timeout-retry", res, want)
	})

	t.Run("hard-down peer never yields wrong answers", func(t *testing.T) {
		ropts := fastRemote()
		ropts.MaxRetries = 1
		wrap, _ := faultingPeer(func(int64) bool { return true }, serve503)
		q := federated(t, wrap, ropts)
		for _, kind := range allExecutors {
			var streamed []toorjah.Tuple
			var res *toorjah.Result
			var err error
			if kind == execPipelined {
				res, err = q.Execute(context.Background(), toorjah.OnAnswer(func(tp toorjah.Tuple) { streamed = append(streamed, tp) }))
			} else {
				res, err = runCQ(q, kind)
			}
			if err == nil {
				// A completed run must be exact; a truncated one sound.
				if res.Truncated {
					for _, a := range res.SortedAnswers() {
						if !wantStrs[a] {
							t.Errorf("%s: truncated result contains wrong answer %q", kind, a)
						}
					}
				} else {
					compareResults(t, string(kind), res, want)
				}
			}
			// Anything streamed before the failure must be a sound subset.
			for _, tp := range streamed {
				if !wantAnswers[tp.Key()] {
					t.Errorf("%s: streamed wrong answer %v before failing", kind, tp)
				}
			}
		}
	})

	t.Run("breaker trips on repeated failure", func(t *testing.T) {
		ropts := fastRemote()
		ropts.MaxRetries = -1
		ropts.BreakerThreshold = 2
		ropts.BreakerCooldown = time.Minute
		wrap, probes := faultingPeer(func(int64) bool { return true }, serve503)
		q := federated(t, wrap, ropts)
		for i := 0; i < 6; i++ {
			if _, err := q.Execute(context.Background()); err == nil {
				t.Fatalf("run %d: err = nil against a dead peer", i)
			}
		}
		// The circuit opened after the threshold: the peer saw only the
		// first failures, not 6 runs' worth of probes.
		if got := probes.Load(); got > 4 {
			t.Errorf("dead peer saw %d probes; breaker should have cut them off", got)
		}
	})
}

// TestServerFederationEndpoints: the server-level federation surface — a
// front node answering /query over a peer's relations, probe accounting in
// the peer's /metrics, outbound telemetry in the front's /metrics, and the
// /healthz?ready readiness view tracking peer reachability.
func TestServerFederationEndpoints(t *testing.T) {
	sch := schema.MustParse(pubSchemaText)
	// The peer serves rev; pub1 and conf stay on the front node.
	db := storage.NewDatabase()
	for name, rows := range pubRows {
		tab, err := db.Create(name, sch.Relation(name).Arity())
		if err != nil {
			t.Fatal(err)
		}
		tab.InsertAll(rows)
	}
	peerURL := startToorjahd(t, []*schema.Relation{sch.Relation("rev")},
		subDatabase(t, db, []*schema.Relation{sch.Relation("rev")}), nil)

	front := toorjah.NewSystem(sch.Clone(),
		toorjah.WithCache(toorjah.CacheOptions{}),
		toorjah.WithRemoteOptions(fastRemote()))
	if err := front.BindDatabase(subDatabase(t, db,
		[]*schema.Relation{sch.Relation("pub1"), sch.Relation("conf")})); err != nil {
		t.Fatal(err)
	}
	if err := front.AttachRemote(context.Background(), peerURL+"=rev"); err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(New(front, toorjah.Options{}).Handler())
	defer fsrv.Close()

	answers, done := queryNDJSON(t, fsrv.URL+"/query?q="+strings.ReplaceAll(pubQuery, " ", "%20"))
	if strings.Join(answers, ";") != "alice" || !done.Done {
		t.Fatalf("federated /query = %v %+v, want alice", answers, done)
	}

	// Front node /metrics: outbound telemetry for the peer.
	fm := scrapeMetrics(t, fsrv.URL)
	labels := `{peer="` + peerURL + `",relation="rev"}`
	if rts, lat := metricValue(t, fm, "toorjah_remote_round_trips_total"+labels),
		metricValue(t, fm, "toorjah_remote_latency_seconds_total"+labels); rts == 0 || lat <= 0 {
		t.Errorf("front telemetry for rev: %v round trips, %vs latency; want both", rts, lat)
	}

	// Peer /metrics: the served probes are accounted per relation.
	servedProbes := func() (roundTrips, accesses, tuples float64) {
		peer := scrapeMetrics(t, peerURL)
		return metricValue(t, peer, `toorjah_probes_served_total{relation="rev"}`),
			metricValue(t, peer, `toorjah_peer_probe_accesses_total{relation="rev"}`),
			metricValue(t, peer, `toorjah_peer_probe_tuples_total{relation="rev"}`)
	}
	probesBefore, accesses, tuples := servedProbes()
	if probesBefore == 0 || accesses < probesBefore || tuples == 0 {
		t.Errorf("peer probe accounting for rev: %v round trips, %v accesses, %v tuples", probesBefore, accesses, tuples)
	}

	// Readiness: healthy while the peer is up, 503 once it is gone.
	resp, err := http.Get(fsrv.URL + "/healthz?ready")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Ready bool                       `json:"ready"`
		Peers map[string]json.RawMessage `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !ready.Ready || len(ready.Peers) != 1 {
		t.Fatalf("ready view = %d %+v, want ready with 1 peer", resp.StatusCode, ready)
	}

	// queryNDJSON(fsrv) again: the front's cache absorbs the repeat — the
	// peer's probe count must not grow.
	if a2, _ := queryNDJSON(t, fsrv.URL+"/query?q="+strings.ReplaceAll(pubQuery, " ", "%20")); strings.Join(a2, ";") != "alice" {
		t.Fatalf("warm federated query = %v", a2)
	}
	if probes, _, _ := servedProbes(); probes != probesBefore {
		t.Errorf("warm query reached the peer: probes %v -> %v", probesBefore, probes)
	}
}

// TestReadinessReportsDeadPeer: the readiness view flips to 503 when an
// attached peer disappears.
func TestReadinessReportsDeadPeer(t *testing.T) {
	sch := schema.MustParse(pubSchemaText)
	db := storage.NewDatabase()
	for name, rows := range pubRows {
		tab, err := db.Create(name, sch.Relation(name).Arity())
		if err != nil {
			t.Fatal(err)
		}
		tab.InsertAll(rows)
	}
	revOnly := []*schema.Relation{sch.Relation("rev")}
	peerSys := toorjah.NewSystem(schema.MustNew(revOnly...))
	if err := peerSys.BindDatabase(subDatabase(t, db, revOnly)); err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(New(peerSys, toorjah.Options{}).Handler())

	ropts := fastRemote()
	ropts.Timeout = 200 * time.Millisecond
	front := toorjah.NewSystem(sch.Clone(), toorjah.WithRemoteOptions(ropts))
	if err := front.BindDatabase(subDatabase(t, db,
		[]*schema.Relation{sch.Relation("pub1"), sch.Relation("conf")})); err != nil {
		t.Fatal(err)
	}
	if err := front.AttachRemote(context.Background(), peer.URL+"=rev"); err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(New(front, toorjah.Options{}).Handler())
	defer fsrv.Close()

	peer.Close() // the peer vanishes
	resp, err := http.Get(fsrv.URL + "/healthz?ready")
	if err != nil {
		t.Fatal(err)
	}
	body := struct {
		Ready bool `json:"ready"`
		Peers map[string]struct {
			Reachable bool   `json:"reachable"`
			Error     string `json:"error"`
		} `json:"peers"`
	}{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body.Ready {
		t.Errorf("dead peer: status %d ready %v, want 503 not-ready", resp.StatusCode, body.Ready)
	}
	p, ok := body.Peers[peer.URL]
	if !ok || p.Reachable || p.Error == "" {
		t.Errorf("dead peer entry = %+v", body.Peers)
	}
	// Liveness stays green: the node itself is up.
	lresp, err := http.Get(fsrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 16)
	n, _ := lresp.Body.Read(b)
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK || !strings.Contains(string(b[:n]), "ok") {
		t.Errorf("liveness = %d %q", lresp.StatusCode, b[:n])
	}
}

// TestPeerIngestMidProbeCachesOneVersion: a client caches a peer's rows
// under the epoch the peer's done frame advertises, so an ingest that lands
// on the peer while a /probe waits for its source must not reach the rows
// filed under the pre-ingest epoch. The peer's cache counting the probe's
// miss marks the moment: its source is then inside its latency.
func TestPeerIngestMidProbeCachesOneVersion(t *testing.T) {
	sch := schema.MustParse("r^io(K, V)")
	peerSys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}), toorjah.WithLatency(200*time.Millisecond))
	if err := peerSys.BindRows("r", toorjah.Row{"a", "old"}); err != nil {
		t.Fatal(err)
	}
	peerH := New(peerSys, toorjah.Options{}).Handler()
	peer := httptest.NewServer(peerH)
	defer peer.Close()
	epoch := peerSys.RelationEpoch("r")

	client := toorjah.NewSystem(sch.Clone(), toorjah.WithCache(toorjah.CacheOptions{}), toorjah.WithRemoteOptions(fastRemote()))
	if err := client.AttachRemote(context.Background(), peer.URL+"=r"); err != nil {
		t.Fatal(err)
	}
	q, err := client.Prepare("q(V) :- r(a, V)")
	if err != nil {
		t.Fatal(err)
	}
	type answered struct {
		res *toorjah.Result
		err error
	}
	done := make(chan answered, 1)
	go func() {
		res, err := q.Execute(context.Background())
		done <- answered{res, err}
	}()
	for peerSys.AccessCache().Snapshot()["r"].Misses == 0 {
		time.Sleep(time.Millisecond) // the peer files the miss before it asks its source
	}
	if w := postIngest(peerH, "/ingest?relation=r", `["a","new"]`+"\n"); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	a := <-done
	if a.err != nil || strings.Join(a.res.SortedAnswers(), ";") != "old" {
		t.Fatalf("the client answered %v, %v; want epoch %d's old", a.res, a.err, epoch)
	}
	if e := client.RelationEpoch("r"); e != epoch {
		t.Errorf("the client learned epoch %d from the probe, want the %d it read", e, epoch)
	}
	id, _ := sym.Lookup("a")
	rows, ok := client.AccessCache().MultiGetSym("r", epoch, [][]sym.ID{{id}})
	if got := storage.MaterializeRows(rows[0]); !ok[0] || len(got) != 1 || got[0][1] != "old" {
		t.Errorf("the client caches %v (present %v) under epoch %d, want that epoch's one row", got, ok[0], epoch)
	}
}

// TestClientCachesPeerRowsUnderTheirEpoch: a client files a peer's rows only
// under the epoch they were read at. It has seen the peer's epoch e when the
// peer inserts a row for the binding the client then probes: the probe reads
// epoch e+1, whose done frame says so, and the client's cache holds nothing
// for the binding under e. Its next probe is filed under e+1.
func TestClientCachesPeerRowsUnderTheirEpoch(t *testing.T) {
	sch := schema.MustParse("r^io(K, V)")
	peerSys := toorjah.NewSystem(sch)
	if err := peerSys.BindRows("r", toorjah.Row{"a", "old"}); err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(New(peerSys, toorjah.Options{}).Handler())
	defer peer.Close()
	epoch := peerSys.RelationEpoch("r")

	client := toorjah.NewSystem(sch.Clone(), toorjah.WithCache(toorjah.CacheOptions{}), toorjah.WithRemoteOptions(fastRemote()))
	if err := client.AttachRemote(context.Background(), peer.URL+"=r"); err != nil {
		t.Fatal(err)
	}
	if e := client.RelationEpoch("r"); e != epoch {
		t.Fatalf("the client attached at epoch %d, want the peer's %d", e, epoch)
	}
	if _, err := peerSys.Insert("r", toorjah.Row{"a", "new"}); err != nil {
		t.Fatal(err)
	}
	q, err := client.Prepare("q(V) :- r(a, V)")
	if err != nil {
		t.Fatal(err)
	}
	id, _ := sym.Lookup("a")
	for run, at := range []uint64{epoch, epoch + 1} {
		res, err := q.Execute(context.Background())
		if err != nil || strings.Join(res.SortedAnswers(), ";") != "new;old" {
			t.Fatalf("run %d answered %v, %v; want new;old", run, res, err)
		}
		if e := client.RelationEpoch("r"); e != epoch+1 {
			t.Errorf("run %d: the client knows epoch %d, want the %d the probe read", run, e, epoch+1)
		}
		rows, ok := client.AccessCache().MultiGetSym("r", at, [][]sym.ID{{id}})
		if got := storage.MaterializeRows(rows[0]); ok[0] != (run == 1) || run == 1 && len(got) != 2 {
			t.Errorf("run %d: the client caches %v (present %v) under epoch %d", run, got, ok[0], at)
		}
	}
}

// TestBreakerStateGauge pins toorjah_remote_breaker_state's scale as one
// peer relation's circuit goes closed (0), open (2), half-open while its
// trial is held in the peer (1), and closed again (0).
func TestBreakerStateGauge(t *testing.T) {
	sch := schema.MustParse(pubSchemaText)
	revOnly := []*schema.Relation{sch.Relation("rev")}
	var mode atomic.Int32 // 0 serve, 1 fail, 2 hold
	held, release := make(chan struct{}), make(chan struct{})
	peerURL := startToorjahd(t, revOnly, subDatabase(t, pubDatabase(t, sch), revOnly),
		func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path != "/probe":
				case mode.Load() == 1:
					http.Error(w, "injected fault", http.StatusServiceUnavailable)
					return
				case mode.Load() == 2:
					close(held)
					<-release
				}
				h.ServeHTTP(w, r)
			})
		})
	ropts := fastRemote()
	ropts.MaxRetries, ropts.BreakerThreshold, ropts.BreakerCooldown = -1, 1, 20*time.Millisecond
	front := toorjah.NewSystem(sch.Clone(), toorjah.WithRemoteOptions(ropts))
	if err := front.AttachRemote(context.Background(), peerURL+"=rev"); err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(New(front, toorjah.Options{}).Handler())
	defer fsrv.Close()
	q, err := front.Prepare("q(C) :- rev(R, C, y2008)") // one access, one round trip
	if err != nil {
		t.Fatal(err)
	}
	gauge := func(want float64, state string) {
		t.Helper()
		series := `toorjah_remote_breaker_state{peer="` + peerURL + `",relation="rev"}`
		if got := metricValue(t, scrapeMetrics(t, fsrv.URL), series); got != want {
			t.Errorf("%s: breaker gauge %v, want %v", state, got, want)
		}
	}

	if _, err := q.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	gauge(0, "closed")
	mode.Store(1)
	if _, err := q.Execute(context.Background()); err == nil {
		t.Fatal("a failing peer answered")
	}
	gauge(2, "open")
	mode.Store(2)
	time.Sleep(2 * ropts.BreakerCooldown)
	done := make(chan error)
	go func() {
		_, err := q.Execute(context.Background())
		done <- err
	}()
	<-held
	gauge(1, "half-open")
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("the trial failed: %v", err)
	}
	gauge(0, "closed again")
}
