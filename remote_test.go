package toorjah

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"toorjah/internal/remote"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// startPeer serves the given relations of the paper's Example 1 schema as a
// federation peer, returning its URL and a counter of /probe round trips.
func startPeer(t *testing.T, rels map[string][]Row) (string, *atomic.Int64) {
	t.Helper()
	var lines []string
	full := schema.MustParse(`
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`)
	for name := range rels {
		lines = append(lines, full.Relation(name).String())
	}
	sch := schema.MustParse(strings.Join(lines, "\n"))
	db := storage.NewDatabase()
	for name, rows := range rels {
		tab, err := db.Create(name, sch.Relation(name).Arity())
		if err != nil {
			t.Fatal(err)
		}
		tab.InsertAll(rows)
	}
	reg, err := source.FromDatabase(sch, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	var probes atomic.Int64
	inner := remote.PeerMux(reg)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/probe" {
			probes.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, &probes
}

// federationRows is Example 1's data, split for the federation tests.
var federationRows = map[string][]Row{
	"r1": {{"modugno", "italy", "1928"}, {"madonna", "usa", "1958"}, {"dylan", "usa", "1941"}},
	"r2": {{"volare", "1958", "modugno"}, {"vogue", "1990", "madonna"}, {"hurricane", "1976", "dylan"}},
	"r3": {{"madonna", "like_a_virgin"}, {"dylan", "desire"}},
}

const federationQuery = "q(N) :- r1(A, N, Y1), r2(volare, Y2, A)"

// attach attaches the peers of specs to sys, in order, and returns sys.
func attach(t testing.TB, sys *System, specs ...string) *System {
	t.Helper()
	for _, spec := range specs {
		if err := sys.AttachRemote(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestWithRemoteFederatedQuery: a query over a mix of local tables and two
// attached federation peers returns exactly the all-local answers and
// access counts.
func TestWithRemoteFederatedQuery(t *testing.T) {
	local := newExample1System(t)
	lq, err := local.Prepare(federationQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lq.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// r1 stays local; r2 and r3 live on two different peers.
	peerB, _ := startPeer(t, map[string][]Row{"r2": federationRows["r2"]})
	peerC, _ := startPeer(t, map[string][]Row{"r3": federationRows["r3"]})
	sys := NewSystem(local.Schema().Clone(), WithRemoteOptions(RemoteOptions{Timeout: 5 * time.Second}))
	if err := sys.BindRows("r1", federationRows["r1"]...); err != nil {
		t.Fatal(err)
	}
	q, err := attach(t, sys, peerB+"=r2", peerC).Prepare(federationQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Join(got.SortedAnswers(), ";"), strings.Join(want.SortedAnswers(), ";"); g != w {
		t.Errorf("federated answers = %q, want %q", g, w)
	}
	for rel, wantSt := range want.Stats {
		if gotSt := got.Stats[rel]; gotSt.Accesses != wantSt.Accesses {
			t.Errorf("%s: federated accesses = %d, local = %d", rel, gotSt.Accesses, wantSt.Accesses)
		}
	}

	// Both peers are attached and reporting telemetry.
	peers := sys.RemotePeers()
	if len(peers) != 2 {
		t.Fatalf("attached peers = %d, want 2", len(peers))
	}
	rt := 0
	for _, p := range peers {
		for _, tel := range p.Telemetry() {
			rt += tel.RoundTrips
		}
	}
	if rt == 0 {
		t.Error("no remote round trips recorded by peer telemetry")
	}
}

// TestRemoteBatchingAmortizesRoundTrips: with batching on, the peer sees
// fewer /probe round trips than accesses; unbatched, one round trip per
// access — with identical answers and access counts.
func TestRemoteBatchingAmortizesRoundTrips(t *testing.T) {
	run := func(maxBatch int) (*Result, int64) {
		url, probes := startPeer(t, federationRows) // everything remote
		sys := attach(t, NewSystem(schema.MustParse(`
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`), WithMaxBatch(maxBatch)), url)
		q, err := sys.Prepare(federationQuery)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, probes.Load()
	}
	batched, batchedProbes := run(16)
	unbatched, unbatchedProbes := run(-1)
	if g, w := strings.Join(batched.SortedAnswers(), ";"), strings.Join(unbatched.SortedAnswers(), ";"); g != w {
		t.Errorf("answers differ: batched %q, unbatched %q", g, w)
	}
	if batched.TotalAccesses() != unbatched.TotalAccesses() {
		t.Errorf("batching changed accesses: %d vs %d", batched.TotalAccesses(), unbatched.TotalAccesses())
	}
	if unbatchedProbes != int64(unbatched.TotalAccesses()) {
		t.Errorf("unbatched: peer saw %d probes for %d accesses, want equal", unbatchedProbes, unbatched.TotalAccesses())
	}
	if batchedProbes > unbatchedProbes {
		t.Errorf("batched run made more HTTP round trips (%d) than unbatched (%d)", batchedProbes, unbatchedProbes)
	}
	if int64(batched.TotalBatches()) != batchedProbes {
		t.Errorf("Result reports %d round trips, peer saw %d", batched.TotalBatches(), batchedProbes)
	}
}

// TestRemoteWithCache: the querying node's cross-query cache absorbs repeat
// traffic — a second identical query reaches the peer zero times.
func TestRemoteWithCache(t *testing.T) {
	url, probes := startPeer(t, federationRows)
	sys := attach(t, NewSystem(schema.MustParse(`
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`), WithCache(CacheOptions{})), url)
	q, err := sys.Prepare(federationQuery)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldProbes := probes.Load()
	if coldProbes == 0 || cold.TotalAccesses() == 0 {
		t.Fatalf("cold run: %d probes, %d accesses, want > 0", coldProbes, cold.TotalAccesses())
	}
	warm, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalAccesses() != 0 {
		t.Errorf("warm run made %d accesses, want 0", warm.TotalAccesses())
	}
	if probes.Load() != coldProbes {
		t.Errorf("warm run reached the peer: %d -> %d probes", coldProbes, probes.Load())
	}
	if g, w := strings.Join(warm.SortedAnswers(), ";"), strings.Join(cold.SortedAnswers(), ";"); g != w {
		t.Errorf("warm answers = %q, want %q", g, w)
	}
}

// TestRemoteUCQ: a union of conjunctive queries streams over federated
// sources like over local ones.
func TestRemoteUCQ(t *testing.T) {
	const ucq = "q(N) :- r1(A, N, Y1), r2(volare, Y2, A)\nq(N) :- r1(A, N, Y), r3(A, like_a_virgin)"
	local := newExample1System(t)
	lu, err := local.PrepareUCQ(ucq)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lu.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	url, _ := startPeer(t, federationRows)
	u, err := attach(t, NewSystem(local.Schema().Clone()), url).PrepareUCQ(ucq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := u.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Join(got.SortedAnswers(), ";"), strings.Join(want.SortedAnswers(), ";"); g != w {
		t.Errorf("federated UCQ = %q, want %q", g, w)
	}
	if got.TotalAccesses() != want.TotalAccesses() {
		t.Errorf("federated UCQ accesses = %d, local = %d", got.TotalAccesses(), want.TotalAccesses())
	}
}

// TestAttachRemoteErrors: bad specs and unreachable peers fail the attach
// with a useful error and attach nothing.
func TestAttachRemoteErrors(t *testing.T) {
	sys := NewSystem(schema.MustParse("r1^ioo(Artist, Nation, Year)"))
	if err := sys.AttachRemote(context.Background(), "=r1"); err == nil {
		t.Error("bad spec: want error")
	}
	if err := sys.AttachRemote(context.Background(), "http://127.0.0.1:1=r1"); err == nil {
		t.Error("unreachable peer: want error")
	}
	if got := len(sys.RemotePeers()); got != 0 {
		t.Errorf("failed attaches left %d peers", got)
	}
}

// TestBareAttachDoesNotShadowLocalData: a bare attach takes only the
// relations this node does not hold data for — the peer's /schema lists
// every declared relation, and rebinding an owned table behind a remote
// (possibly empty) source would silently change answers.
func TestBareAttachDoesNotShadowLocalData(t *testing.T) {
	// The peer declares r1 and r2 but only has r2 data; r1 (and r3, which
	// seeds the recursive plan) are local, owned, and different from the
	// peer's (empty) r1.
	url, probes := startPeer(t, map[string][]Row{
		"r1": nil, // declared, empty
		"r2": federationRows["r2"],
	})
	sys := NewSystem(schema.MustParse(`
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`))
	if err := sys.BindRows("r1", federationRows["r1"]...); err != nil {
		t.Fatal(err)
	}
	if err := sys.BindRows("r3", federationRows["r3"]...); err != nil {
		t.Fatal(err)
	}
	q, err := attach(t, sys, url).Prepare(federationQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(res.SortedAnswers(), ";"); g != "italy" {
		t.Errorf("answers = %q, want italy (local r1 must not be shadowed by the peer's empty r1)", g)
	}
	if probes.Load() == 0 {
		t.Error("r2 was not sourced from the peer")
	}

	// Nothing left to attach is an error, not a silent no-op.
	full := NewSystem(schema.MustParse("r2^oio(Title, Year, Artist)"))
	if err := full.BindRows("r2", federationRows["r2"]...); err != nil {
		t.Fatal(err)
	}
	if err := full.AttachRemote(context.Background(), url); err == nil || !strings.Contains(err.Error(), "already locally bound") {
		t.Errorf("fully-owned bare attach: err = %v", err)
	}
}

// TestPeerSourceServesTheVersionItAdvertises: a /probe reads the version its
// source reports, cache or not. An insert lands while the cached probe of a
// is inside its source's latency — after the cache has filed the miss under
// the epoch it read — and neither the probe's rows, nor what the cache holds
// under that epoch, nor the epoch the source reports may carry the new row.
func TestPeerSourceServesTheVersionItAdvertises(t *testing.T) {
	sch, err := ParseSchema("r^io(K, V)")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch, WithCache(CacheOptions{}), WithLatency(200*time.Millisecond))
	if err := sys.BindRows("r", Row{"a", "old"}); err != nil {
		t.Fatal(err)
	}
	w := sys.PeerSource("r")
	epoch := source.EpochOf(w)
	type probed struct {
		rows [][]storage.Row
		err  error
	}
	done := make(chan probed, 1)
	go func() {
		rows, err := source.ProbeStrings(context.Background(), w, [][]string{{"a"}})
		done <- probed{rows, err}
	}()
	for sys.AccessCache().Snapshot()["r"].Misses == 0 {
		time.Sleep(time.Millisecond) // the miss is filed before the source is asked
	}
	if _, err := sys.Insert("r", Row{"a", "new"}); err != nil {
		t.Fatal(err)
	}
	p := <-done
	if p.err != nil || len(p.rows) != 1 || len(p.rows[0]) != 1 || p.rows[0][0][1] != "old" {
		t.Errorf("the probe answered %v, %v; want epoch %d's one row", p.rows, p.err, epoch)
	}
	if e := source.EpochOf(w); e != epoch {
		t.Errorf("the probed source reports epoch %d, want the %d it read", e, epoch)
	}
	a, _ := sym.Lookup("a")
	rows, ok := sys.AccessCache().MultiGetSym("r", epoch, [][]sym.ID{{a}})
	if got := storage.MaterializeRows(rows[0]); !ok[0] || len(got) != 1 || got[0][1] != "old" {
		t.Errorf("the cache holds %v (present %v) under epoch %d, want that epoch's one row", got, ok[0], epoch)
	}
}

// TestPeerProbeHoldsItsPinnedVersion: a /probe request holds the symbol
// table from before its relation is resolved, since PeerSource pins the
// table's current version there. A batch that deletes every row and
// compacts the log, a sweep and a batch of fresh values all land between
// the resolve and the probe, and the probe still answers the pinned
// version's strings, cache or not.
func TestPeerProbeHoldsItsPinnedVersion(t *testing.T) {
	sch, err := ParseSchema("live^io(K, V)")
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]SystemOption{nil, {WithCache(CacheOptions{})}} {
		sys := NewSystem(sch, opts...)
		const n = 1100 // past storage's compaction threshold of 1024 tombstones
		rows, fresh, want := make([]Row, n), make([]Row, n), make([]string, n)
		for i := range rows {
			rows[i] = Row{"k", fmt.Sprintf("peer-held-%d", i)}
			fresh[i] = Row{"x", fmt.Sprintf("peer-fresh-%d", i)}
			want[i] = rows[i][1]
		}
		if err := sys.BindRows("live", rows...); err != nil {
			t.Fatal(err)
		}
		h := remote.NewHandler(func(name string) source.Wrapper {
			w := sys.PeerSource(name)
			if _, err := sys.Delete("live", rows...); err != nil {
				t.Error(err)
			}
			sym.Default.Sweep()
			if _, err := sys.Insert("live", fresh...); err != nil {
				t.Error(err)
			}
			return w
		})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/probe",
			strings.NewReader(`{"relation":"live","bindings":[["k"]]}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("probe: %d %s", rec.Code, rec.Body)
		}
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
			var f struct{ Row []string }
			if err := json.Unmarshal([]byte(line), &f); err != nil {
				t.Fatal(err)
			}
			if f.Row != nil {
				got = append(got, f.Row[1])
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("cache %v: the probe answered %d values over its pinned version, want the %d deleted ones; first %q",
				opts != nil, len(got), len(want), got[:min(3, len(got))])
		}
	}
}
