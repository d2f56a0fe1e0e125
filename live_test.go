package toorjah_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"toorjah"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// TestLiveMutationConsistency is the live-data acceptance property: a writer
// interleaves Insert/Delete batches with concurrent CQ and UCQ executions
// across all three executors, with and without a cross-query cache, batched
// and unbatched — over one shared pair of live tables — and every query's
// answer set must equal the evaluation over some single published epoch of
// each relation (no torn reads), with post-ingest queries seeing exactly the
// final rows.
//
// The query is a chain within the mutated relation, q(Y) :- r(k,X), r(X,Y),
// so that a mixed-epoch read is detectable: the writer alternates disjoint
// chains {(k,v_g),(v_g,w_g)}, and an execution reading the first hop at one
// epoch and the second at another dead-ends into an answer set no single
// epoch produces (typically empty — and no recorded epoch is empty).
func TestLiveMutationConsistency(t *testing.T) {
	readers, queriesEach := 6, 50
	if testing.Short() {
		readers, queriesEach = 4, 15
	}

	sch := schema.MustParse(`
		r^io(Node, Node)
		d^io(K, V)`)
	tabR := storage.NewTable("r", 2)
	tabD := storage.NewTable("d", 2)

	// Four systems over the same live tables: the writer mutates through the
	// first; the cached systems other than the writer's are never explicitly
	// invalidated, so their freshness rests entirely on epoch-keyed entries.
	newSys := func(opts ...toorjah.SystemOption) *toorjah.System {
		sys := toorjah.NewSystem(sch, opts...)
		if err := sys.BindTable("r", tabR); err != nil {
			t.Fatal(err)
		}
		if err := sys.BindTable("d", tabD); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// The simulated per-access latency widens the window between a chain
	// query's first and second hop, so an unpinned execution would actually
	// straddle mutations (the writer cycles generations the whole time the
	// readers run).
	lat := toorjah.WithLatency(200 * time.Microsecond)
	systems := []*toorjah.System{
		newSys(lat, toorjah.WithCache(toorjah.CacheOptions{})),
		newSys(lat, toorjah.WithCache(toorjah.CacheOptions{}), toorjah.WithMaxBatch(4)),
		newSys(lat),
		newSys(lat, toorjah.WithMaxBatch(-1)),
	}
	writerSys := systems[0]

	const cqText = "q(Y) :- r(k, X), r(X, Y)"
	const ucqText = cqText + "\nq(V) :- d(k2, V)"

	// Generation g of the data; canonR/canonD build the canonical answer
	// strings the histories record.
	rRows := func(g int) []toorjah.Row {
		return []toorjah.Row{{"k", fmt.Sprintf("v%d", g)}, {fmt.Sprintf("v%d", g), fmt.Sprintf("w%d", g)}}
	}
	dRows := func(g int) []toorjah.Row {
		return []toorjah.Row{{"k2", fmt.Sprintf("u%d", g)}}
	}
	// canon sorts, as splitAnswers does: generations 9→10 and 99→100 order
	// differently as strings than as numbers.
	canon := func(vals ...string) string {
		sort.Strings(vals)
		return strings.Join(vals, "|")
	}

	// histR / histD are the canonical answer sets of every epoch ever
	// published, per relation; recording happens under histMu in the same
	// critical section as the mutation, so any epoch a reader can have
	// pinned is recorded by the time the reader acquires the mutex to check.
	var histMu sync.Mutex
	histR := map[string]bool{}
	histD := map[string]bool{}

	histMu.Lock()
	if _, err := writerSys.Insert("r", rRows(0)...); err != nil {
		t.Fatal(err)
	}
	histR[canon("w0")] = true
	if _, err := writerSys.Insert("d", dRows(0)...); err != nil {
		t.Fatal(err)
	}
	histD[canon("u0")] = true
	histMu.Unlock()

	// Prepare once, before any further mutation: live data must not require
	// re-preparing (plans depend only on the schema).
	type prepared struct {
		cq  *toorjah.Query
		ucq *toorjah.UnionQuery
	}
	plans := make([]prepared, len(systems))
	for i, sys := range systems {
		q, err := sys.Prepare(cqText)
		if err != nil {
			t.Fatal(err)
		}
		u, err := sys.PrepareUCQ(ucqText)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = prepared{cq: q, ucq: u}
	}

	var readersWG, writerWG sync.WaitGroup
	readersDone := make(chan struct{})
	var finalGen int

	// The writer cycles generations for as long as the readers run: each
	// step inserts generation g (publishing the union state {w_{g-1},w_g})
	// and then deletes generation g-1 (publishing the clean state {w_g});
	// same for d.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		g := 0
		defer func() { finalGen = g }()
		for {
			select {
			case <-readersDone:
				return
			default:
			}
			g++
			histMu.Lock()
			if _, err := writerSys.Insert("r", rRows(g)...); err != nil {
				t.Error(err)
			}
			histR[canon(fmt.Sprintf("w%d", g-1), fmt.Sprintf("w%d", g))] = true
			histMu.Unlock()

			histMu.Lock()
			if _, err := writerSys.Delete("r", rRows(g-1)...); err != nil {
				t.Error(err)
			}
			histR[canon(fmt.Sprintf("w%d", g))] = true
			histMu.Unlock()

			histMu.Lock()
			if _, err := writerSys.Insert("d", dRows(g)...); err != nil {
				t.Error(err)
			}
			histD[canon(fmt.Sprintf("u%d", g-1), fmt.Sprintf("u%d", g))] = true
			histMu.Unlock()

			histMu.Lock()
			if _, err := writerSys.Delete("d", dRows(g-1)...); err != nil {
				t.Error(err)
			}
			histD[canon(fmt.Sprintf("u%d", g))] = true
			histMu.Unlock()
		}
	}()

	// splitAnswers partitions a result's single-column answers into the
	// r-derived (w*) and d-derived (u*) parts.
	splitAnswers := func(res *toorjah.Result) (rPart, dPart string, bad []string) {
		var ws, us []string
		for _, a := range res.SortedAnswers() {
			switch {
			case strings.HasPrefix(a, "w"):
				ws = append(ws, a)
			case strings.HasPrefix(a, "u"):
				us = append(us, a)
			default:
				bad = append(bad, a)
			}
		}
		return strings.Join(ws, "|"), strings.Join(us, "|"), bad
	}

	check := func(kind string, res *toorjah.Result, err error, wantD bool) {
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			return
		}
		if res.Truncated {
			t.Errorf("%s: unexpected truncation", kind)
			return
		}
		rPart, dPart, bad := splitAnswers(res)
		if len(bad) > 0 {
			t.Errorf("%s: unclassifiable answers %v", kind, bad)
			return
		}
		histMu.Lock()
		okR := histR[rPart]
		okD := histD[dPart]
		histMu.Unlock()
		if !okR {
			t.Errorf("%s: torn read — r answers %q match no published epoch", kind, rPart)
		}
		if wantD && !okD {
			t.Errorf("%s: torn read — d answers %q match no published epoch", kind, dPart)
		}
		if !wantD && dPart != "" {
			t.Errorf("%s: CQ produced d answers %q", kind, dPart)
		}
	}

	for i := 0; i < readers; i++ {
		readersWG.Add(1)
		go func(seed int64) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < queriesEach; n++ {
				p := plans[rng.Intn(len(plans))]
				switch rng.Intn(6) {
				case 0:
					res, err := p.cq.Execute(context.Background())
					check("fastfail CQ", res, err, false)
				case 1:
					res, err := p.cq.Execute(context.Background(), toorjah.WithExecutor(toorjah.ExecutorNaive))
					check("naive CQ", res, err, false)
				case 2:
					res, err := p.cq.Execute(context.Background(), toorjah.WithExecutor(toorjah.ExecutorPipelined))
					check("pipelined CQ", res, err, false)
				case 3:
					res, err := p.ucq.Execute(context.Background())
					check("parallel UCQ", res, err, true)
				case 4:
					res, err := p.ucq.Execute(context.Background(), toorjah.OnAnswer(func(toorjah.Tuple) {}))
					check("streamed UCQ", res, err, true)
				case 5:
					res, err := p.ucq.Execute(context.Background(), toorjah.WithExecOptions(toorjah.Options{MaxConcurrent: -1}))
					check("sequential UCQ", res, err, true)
				}
			}
		}(int64(i) + 1)
	}
	readersWG.Wait()
	close(readersDone)
	writerWG.Wait()

	// Post-ingest: with the writer quiet, every system and executor must see
	// exactly the final generation — including the cached systems that were
	// never explicitly invalidated.
	wantR := canon(fmt.Sprintf("w%d", finalGen))
	wantU := fmt.Sprintf("u%d", finalGen)
	for i, p := range plans {
		for kind, run := range map[string]func() (*toorjah.Result, error){
			"fastfail": func() (*toorjah.Result, error) {
				return p.cq.Execute(context.Background())
			},
			"naive": func() (*toorjah.Result, error) {
				return p.cq.Execute(context.Background(), toorjah.WithExecutor(toorjah.ExecutorNaive))
			},
			"pipelined": func() (*toorjah.Result, error) {
				return p.cq.Execute(context.Background(), toorjah.WithExecutor(toorjah.ExecutorPipelined))
			},
			"ucq": func() (*toorjah.Result, error) {
				return p.ucq.Execute(context.Background())
			},
		} {
			res, err := run()
			if err != nil {
				t.Fatalf("system %d %s final: %v", i, kind, err)
			}
			rPart, dPart, _ := splitAnswers(res)
			if rPart != wantR {
				t.Errorf("system %d %s final: r answers %q, want %q", i, kind, rPart, wantR)
			}
			if kind == "ucq" && dPart != wantU {
				t.Errorf("system %d %s final: d answers %q, want %q", i, kind, dPart, wantU)
			}
		}
	}
	if e := writerSys.RelationEpoch("r"); e < uint64(2*finalGen) {
		t.Errorf("r epoch = %d, want >= %d", e, 2*finalGen)
	}
	info := writerSys.DataInfo()["r"]
	if info.Rows != 2 || !info.Local || info.ModifiedAt.IsZero() {
		t.Errorf("DataInfo(r) = %+v", info)
	}
}

// heldSource keeps its relation's first probe inside the source until release
// is closed, and says when it got there.
type heldSource struct {
	toorjah.Wrapper
	entered, release chan struct{}
	once             sync.Once
}

func (h *heldSource) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
	return h.Wrapper.Probe(ctx, ids, out)
}

// TestIngestVoidsNobodyElsesStore: a batch applied to one relation takes
// nothing from anyone else. The relation's own entries are fenced by the epoch
// the batch advanced, and freed by its first read at the new one; a miss of
// another relation that was in flight while the batch landed is still stored
// when it returns, so its repeat is a hit.
func TestIngestVoidsNobodyElsesStore(t *testing.T) {
	sch := schema.MustParse(`
		r^io(K, V)
		s^io(K, V)`)
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	if err := sys.BindRows("s", toorjah.Row{"k", "v"}); err != nil {
		t.Fatal(err)
	}
	tab := storage.NewTable("r", 2)
	tab.InsertAll([]storage.Row{{"a", "1"}})
	src, err := source.NewTableSource(sch.Relation("r"), tab)
	if err != nil {
		t.Fatal(err)
	}
	held := &heldSource{Wrapper: src, entered: make(chan struct{}), release: make(chan struct{})}
	sys.Bind(held)
	q, err := sys.Prepare("q(V) :- r(a, V)")
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *toorjah.Result
		err error
	}
	first := make(chan outcome, 1)
	go func() {
		res, err := q.Execute(context.Background())
		first <- outcome{res, err}
	}()
	<-held.entered
	if n, err := sys.Insert("s", toorjah.Row{"k2", "v2"}); err != nil || n != 1 {
		t.Fatalf("insert into s beside r's probe: %d rows, %v", n, err)
	}
	close(held.release)
	if o := <-first; o.err != nil || o.res.TotalAccesses() != 1 || strings.Join(o.res.SortedAnswers(), ";") != "1" {
		t.Fatalf("the gated query: %v, %v", o.res, o.err)
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAccesses() != 0 || res.Demanded != 1 || strings.Join(res.SortedAnswers(), ";") != "1" {
		t.Errorf("the repeat made %d accesses for %d demanded (answers %v): r's extraction was not stored because a batch landed on s meanwhile",
			res.TotalAccesses(), res.Demanded, res.SortedAnswers())
	}
}

// heldTable binds rows of relation name behind a heldSource (which hides the
// table's epoch: the relation is unversioned, so two bindings of it share
// their cache keys and only the cache's own fence can tell them apart).
func heldTable(t *testing.T, sch *toorjah.Schema, name string, rows ...storage.Row) *heldSource {
	t.Helper()
	tab := storage.NewTable(name, 2)
	tab.InsertAll(rows)
	src, err := source.NewTableSource(sch.Relation(name), tab)
	if err != nil {
		t.Fatal(err)
	}
	return &heldSource{Wrapper: src, entered: make(chan struct{}), release: make(chan struct{})}
}

// TestRebindVoidsNobodyElsesStore is TestIngestVoidsNobodyElsesStore's twin
// for a rebind: Bind of s while r's miss is in flight starts a new incarnation
// of s and of nothing else, so r's extraction is stored and its repeat is a
// hit. (Invalidate used to bump a cache-wide counter every fetch checked.)
func TestRebindVoidsNobodyElsesStore(t *testing.T) {
	sch := schema.MustParse(`
		r^io(K, V)
		s^io(K, V)`)
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	held := heldTable(t, sch, "r", storage.Row{"a", "1"})
	sys.Bind(held)
	q, err := sys.Prepare("q(V) :- r(a, V)")
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, err := q.Execute(context.Background())
		first <- err
	}()
	<-held.entered
	if err := sys.BindRows("s", toorjah.Row{"k", "v"}); err != nil {
		t.Fatal(err)
	}
	close(held.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAccesses() != 0 || strings.Join(res.SortedAnswers(), ";") != "1" {
		t.Errorf("the repeat made %d accesses (answers %v): r's extraction was not stored because s was rebound meanwhile",
			res.TotalAccesses(), res.SortedAnswers())
	}
}

// TestRebindUnderHeldQuery: a rebind under live traffic cannot poison the
// cache. A two-hop query over r is held inside its first probe of source A
// while r is rebound to B; released, it finishes over A — the source it
// pinned — and its second hop, fetched after the rebind, must not be served
// to the next execution, which reads B.
func TestRebindUnderHeldQuery(t *testing.T) {
	sch := schema.MustParse("r^io(Node, Node)")
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	a := heldTable(t, sch, "r", storage.Row{"a", "k"}, storage.Row{"k", "old"})
	b := heldTable(t, sch, "r", storage.Row{"a", "k"}, storage.Row{"k", "new"})
	close(b.release)
	sys.Bind(a)
	q, err := sys.Prepare("q(V) :- r(a, K), r(K, V)")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *toorjah.Result
		err error
	}
	heldRun := make(chan outcome, 1)
	go func() {
		res, err := q.Execute(context.Background())
		heldRun <- outcome{res, err}
	}()
	<-a.entered
	sys.Bind(b)
	close(a.release)
	if o := <-heldRun; o.err != nil || strings.Join(o.res.SortedAnswers(), ";") != "old" {
		t.Fatalf("the held query: %v, %v; want A's answer, the source it pinned", o.res, o.err)
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.SortedAnswers(), ";"); got != "new" || res.TotalAccesses() != 2 {
		t.Errorf("after the rebind the query answers %q with %d accesses, want B's \"new\" with 2: rows of A were served", got, res.TotalAccesses())
	}
	if res, err = q.Execute(context.Background()); err != nil || res.TotalAccesses() != 0 || strings.Join(res.SortedAnswers(), ";") != "new" {
		t.Errorf("B's repeat: %v, %v; want its answer from the cache", res, err)
	}
}
