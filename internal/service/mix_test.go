package service

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toorjah"
	"toorjah/internal/cq"
	"toorjah/internal/oracle"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/wal"
)

// mixSchemaText is the concurrent mix's schema: pub is local to the front
// node; conf is the peer's and input-bound by paper, so an access to it is a
// federated round trip until cached; storm is the ingest target no query
// reads, so ingest advances epochs without moving the ground truth.
const mixSchemaText = `
pub^oo(P, T)
conf^ioo(P, C, Y)
storm^oo(K, V)`

// mixRows is the rows per ingest batch of the concurrent mix.
const mixRows = 20

// mixQuery is one query of the concurrent mix, with its ground truth and
// what the clients saw of it.
type mixQuery struct {
	text  string
	limit int  // 0: unlimited
	peer  bool // reads conf, so a peer outage may fail it
	truth []string

	requests, failed, wrong atomic.Int64
}

// TestConcurrentMixMatchesGroundTruth abuses a front node and its peer over
// real HTTP: four clients draw federated point queries and joins, a UCQ, a
// limited scan, ingest batches and peer outages, and every response is held
// to the naive algorithm's answers on an all-local system. A complete
// response equals them; a truncated or limited one is a subset, a limited
// one of exactly limit answers. Errors stay on the queries that read the
// peer, within a 10 % budget of them. Every ingest is acked and /metrics
// counts every acked row, and no goroutine outlives the clients.
func TestConcurrentMixMatchesGroundTruth(t *testing.T) {
	ctx := context.Background()
	sch, all := mixData(t)

	// The peer serves conf behind an outage switch that fails its probes.
	var outage atomic.Bool
	down, probes := faultingPeer(func(int64) bool { return outage.Load() },
		func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
		})
	confRel := []*schema.Relation{sch.Relation("conf")}
	peer := startToorjahd(t, confRel, subDatabase(t, all, confRel), down)

	// The front node: pub and storm local, conf attached from the peer, the
	// access cache on and every applied batch logged.
	l, _, err := wal.Open(quietWALOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	sys := toorjah.NewSystem(sch.Clone(), toorjah.WithCache(toorjah.CacheOptions{}), toorjah.WithRemoteOptions(fastRemote()))
	if err := sys.BindDatabase(subDatabase(t, all, []*schema.Relation{sch.Relation("pub"), sch.Relation("storm")})); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachRemote(ctx, peer+"=conf"); err != nil {
		t.Fatal(err)
	}
	WireWAL(sys, l)
	front := httptest.NewServer(New(sys, toorjah.Options{}, WithWAL(l)).Handler())
	t.Cleanup(front.Close)
	queries := mixQueries(t, sch, all)

	// Each query is answered once, exactly, before the clients start. That
	// warms the access cache: the federated queries are answered from it
	// through every outage, and the error budget bounds what still reaches
	// the peer.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	for _, q := range queries {
		if err := scoreMixQuery(t, client, front.URL, q); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
	}

	duration := time.Second
	if testing.Short() {
		duration = 300 * time.Millisecond
	}
	var acked, nextRow atomic.Int64
	goroutines := runtime.NumGoroutine()
	deadline, cancel := context.WithTimeout(ctx, duration)
	defer cancel()
	var wg sync.WaitGroup
	for c := int64(1); c <= 4; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for deadline.Err() == nil {
				switch k := rng.Intn(len(queries) + 2); k {
				case len(queries):
					var body strings.Builder
					for i := 0; i < mixRows; i++ {
						n := nextRow.Add(1)
						fmt.Fprintf(&body, "[\"k%d\", \"v%d\"]\n", n, n)
					}
					if err := postStorm(client, front.URL, body.String()); err != nil {
						t.Errorf("ingest: %v", err)
						continue
					}
					acked.Add(1)
				case len(queries) + 1:
					if !outage.CompareAndSwap(false, true) {
						continue // at most one outage in flight
					}
					select {
					case <-time.After(250 * time.Millisecond):
					case <-deadline.Done():
					}
					outage.Store(false)
				default:
					q := queries[k]
					q.requests.Add(1)
					if err := scoreMixQuery(t, client, front.URL, q); err != nil && q.failed.Add(1) == 1 && !q.peer {
						t.Errorf("reads no peer, yet failed: %v", err)
					}
				}
			}
		}(rand.New(rand.NewSource(c)))
	}
	wg.Wait()

	var peerRequests, peerFailed int64
	for _, q := range queries {
		n, f := q.requests.Load(), q.failed.Load()
		t.Logf("%q: %d requests, %d failed, %d wrong", q.text, n, f, q.wrong.Load())
		if n == 0 {
			t.Errorf("%q never ran", q.text)
		}
		if q.peer {
			peerRequests += n
			peerFailed += f
		}
	}
	t.Logf("%d ingest batches acked, %d probes reached the peer", acked.Load(), probes.Load())
	if float64(peerFailed) > 0.10*float64(peerRequests) {
		t.Errorf("%d of %d queries reading the peer failed, beyond the 10%% budget", peerFailed, peerRequests)
	}
	if acked.Load() == 0 {
		t.Error("no ingest batch ran")
	}
	if got, want := metricValue(t, scrapeMetrics(t, front.URL), `toorjah_relation_rows{relation="storm"}`), acked.Load()*mixRows; got != float64(want) {
		t.Errorf("/metrics counts %v storm rows, %d acked batches hold %d", got, acked.Load(), want)
	}

	// Idle keep-alive connections hold goroutines: the clients' to the front
	// node, and the front node's own to the peer.
	client.CloseIdleConnections()
	for _, p := range sys.RemotePeers() {
		p.Close()
	}
	for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > goroutines {
		t.Errorf("%d goroutines before the clients, %d after", goroutines, after)
		var profile strings.Builder
		pprof.Lookup("goroutine").WriteTo(&profile, 1)
		t.Log(profile.String())
	}
}

// mixData builds the concurrent mix's schema and its all-local database: 40
// papers of 5 titles each, every paper at 2 conferences, and storm empty.
func mixData(t *testing.T) (*schema.Schema, *storage.Database) {
	sch := schema.MustParse(mixSchemaText)
	var pub, conf []storage.Row
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("p%d", i)
		for j := 0; j < 5; j++ {
			pub = append(pub, storage.Row{p, fmt.Sprintf("title_%d_%d", i, j)})
		}
		for j := 0; j < 2; j++ {
			conf = append(conf, storage.Row{p, fmt.Sprintf("conf%d", (i+j)%7), fmt.Sprintf("y%d", 2000+(i+j)%9)})
		}
	}
	all := storage.NewDatabase()
	for name, rows := range map[string][]storage.Row{"pub": pub, "conf": conf, "storm": nil} {
		tab, err := all.Create(name, sch.Relation(name).Arity())
		if err != nil {
			t.Fatal(err)
		}
		tab.InsertAll(rows)
	}
	return sch, all
}

// mixQueries returns the mix's queries, each with its ground truth: the
// answers of the naive algorithm's string-space reference over all.
func mixQueries(t *testing.T, sch *schema.Schema, all *storage.Database) []*mixQuery {
	reg, err := source.FromDatabase(sch, all, 0)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*mixQuery{
		{text: "q(C, Y) :- conf(p1, C, Y)", peer: true},
		{text: "q(T, C) :- pub(P, T), conf(P, C, Y)", peer: true},
		{text: "q(T) :- pub(p1, T)\nq(T) :- pub(p2, T)\nq(T) :- pub(p3, T)"},
		{text: "q(P, T) :- pub(P, T)", limit: 10},
	}
	for _, q := range queries {
		u, err := cq.ParseUCQ(q.text)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := oracle.Reference(sch, reg, u.Disjuncts)
		if err != nil {
			t.Fatal(err)
		}
		q.truth = ref.Answers
	}
	return queries
}

// TestMixGroundTruth pins the oracle the concurrent mix is scored against to
// answers counted by hand from mixData, and the subset rule it scores
// truncated and limited responses by.
func TestMixGroundTruth(t *testing.T) {
	sch, all := mixData(t)
	queries := mixQueries(t, sch, all)
	// p1 is at conf1 in y2001 and conf2 in y2002; every paper has 5 titles
	// at 2 conferences.
	if got, want := strings.Join(queries[0].truth, ";"), "conf1\x1fy2001;conf2\x1fy2002"; got != want {
		t.Errorf("point query: ground truth %q, want %q", got, want)
	}
	for i, want := range []int{2, 40 * 5 * 2, 3 * 5, 40 * 5} {
		if got := len(queries[i].truth); got != want {
			t.Errorf("%q: %d ground-truth answers, want %d", queries[i].text, got, want)
		}
	}

	truth := queries[0].truth
	for _, tc := range []struct {
		got  []string
		want bool
	}{
		{nil, true},
		{truth[1:], true},
		{truth, true},
		{[]string{"conf1\x1fy2002"}, false},
		{[]string{truth[0], truth[0]}, false},
		{append(append([]string(nil), truth...), "conf9\x1fy2009"), false},
	} {
		if got := subsetOf(tc.got, truth); got != tc.want {
			t.Errorf("subsetOf(%q, %q) = %v, want %v", tc.got, truth, got, tc.want)
		}
	}
}

// scoreMixQuery issues one query of the mix and holds what it answered to
// the ground truth, reporting the query's first contradiction with t.Error
// and counting the rest; it returns the request's failure, if any.
func scoreMixQuery(t *testing.T, client *http.Client, base string, q *mixQuery) error {
	target := base + "/query?" + url.Values{"q": {q.text}}.Encode()
	if q.limit > 0 {
		target += "&limit=" + strconv.Itoa(q.limit)
	}
	rows, done, err := readNDJSON(client, target)
	got := sortedRows(rows)
	var wrong string
	switch {
	case !subsetOf(got, q.truth):
		wrong = "not a subset of the ground truth"
	case err != nil:
		return fmt.Errorf("%q: %w", q.text, err)
	case q.limit > 0 && len(got) != q.limit:
		wrong = fmt.Sprintf("not exactly limit=%d answers", q.limit)
	case q.limit == 0 && !done.Truncated && strings.Join(got, ";") != strings.Join(q.truth, ";"):
		wrong = "not the ground truth"
	}
	if wrong != "" && q.wrong.Add(1) == 1 {
		i := 0
		for i < len(got) && i < len(q.truth) && got[i] == q.truth[i] {
			i++
		}
		at := func(s []string) string {
			if i < len(s) {
				return strconv.Quote(s[i])
			}
			return "the end"
		}
		t.Errorf("%q: %s: %d answers, ground truth %d; first difference %s against %s",
			q.text, wrong, len(got), len(q.truth), at(got), at(q.truth))
	}
	return err
}

// subsetOf reports whether the sorted got is a sub-multiset of the sorted,
// duplicate-free want.
func subsetOf(got, want []string) bool {
	i := 0
	for _, g := range got {
		for i < len(want) && want[i] < g {
			i++
		}
		if i == len(want) || want[i] != g {
			return false
		}
		i++
	}
	return true
}

// postStorm posts one NDJSON batch into the storm relation; anything but an
// ack is the error.
func postStorm(client *http.Client, base, body string) error {
	resp, err := client.Post(base+"/ingest?relation=storm", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	ack, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, ack)
	}
	return err
}
