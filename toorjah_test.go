package toorjah

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"toorjah/internal/cq"
	"toorjah/internal/gen"
	"toorjah/internal/obs"
	"toorjah/internal/oracle"
)

func musicSystem(t *testing.T) *System {
	t.Helper()
	sch, err := ParseSchema(`
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch)
	for _, bind := range []struct {
		rel  string
		rows []Row
	}{
		{"r1", []Row{{"modugno", "italy", "1928"}, {"madonna", "usa", "1958"}}},
		{"r2", []Row{{"volare", "1958", "modugno"}, {"vogue", "1990", "madonna"}}},
		{"r3", []Row{{"madonna", "like_a_virgin"}}},
	} {
		if err := sys.BindRows(bind.rel, bind.rows...); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// caseOf is the oracle case of a query text — one disjunct a line — over
// sys's tables, with the reference's outcome.
func caseOf(t *testing.T, sys *System, text string) *oracle.Case {
	t.Helper()
	u, err := cq.ParseUCQ(text)
	if err != nil {
		t.Fatal(err)
	}
	var load []oracle.Batch
	for name, dump := range sys.DataSnapshot() {
		load = append(load, oracle.Batch{Rel: name, Rows: dump.Rows})
	}
	ref, err := oracle.Reference(sys.sch, sys.reg, u.Disjuncts)
	if err != nil {
		t.Fatal(err)
	}
	return &oracle.Case{Schema: sys.sch, DB: oracle.Build(sys.sch, load), Disjuncts: u.Disjuncts, Ref: ref}
}

func TestSystemEndToEnd(t *testing.T) {
	c := caseOf(t, musicSystem(t), "q(N) :- r1(A, N, Y1), r2(volare, Y2, A)")
	if got := strings.Join(c.Ref.Answers, ";"); got != "italy" {
		t.Errorf("answers = %s", got)
	}
	checkFacade(t, c)
}

// TestOnAnswerIsOnAnswersOneAtATime: under every executor, and for a union,
// the bursts OnAnswers receives laid end to end, and the sequence the
// OnAnswer adapter sees, are both the answers in the order the engine took
// them — the order a per-answer callback inside the engine used to see. And
// OnBursts is told which burst is the last: once at most, with no call
// after it — by a run handing over answers as it finishes, never by a union
// (a disjunct's last burst is not the union's) and not by a run the limit
// stopped with round trips still out, which delivers before it waits.
func TestOnAnswerIsOnAnswersOneAtATime(t *testing.T) {
	sch, err := ParseSchema("free^oo(A, B)\nmid^io(B, C)\nalt^oo(A, C)")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch)
	var free, mid, alt []Row
	for i := 0; i < 70; i++ {
		free = append(free, Row{"a" + strconv.Itoa(i), "b" + strconv.Itoa(i)})
		mid = append(mid, Row{"b" + strconv.Itoa(i), "c" + strconv.Itoa(i)})
		alt = append(alt, Row{"a" + strconv.Itoa(i%10), "c" + strconv.Itoa(i%10)})
	}
	for rel, rows := range map[string][]Row{"free": free, "mid": mid, "alt": alt} {
		if err := sys.BindRows(rel, rows...); err != nil {
			t.Fatal(err)
		}
	}
	q, err := sys.Prepare("q(X, Z) :- free(X, Y), mid(Y, Z)")
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.PrepareUCQ("q(X, Z) :- free(X, Y), mid(Y, Z)\nq(X, Z) :- alt(X, Z)")
	if err != nil {
		t.Fatal(err)
	}
	type runner interface {
		Execute(context.Context, ...ExecOption) (*Result, error)
	}
	// Answers derived at completion are one burst; the pipelined join
	// delivers one per round trip on mid (70 accesses, 16 apiece); how a
	// union's disjuncts interleave is not fixed.
	cases := []struct {
		name    string
		run     runner
		opts    []ExecOption
		bursts  int  // 0: any number
		last    bool // the run's final burst is delivered as it finishes
		answers int
	}{
		{"pipelined", q, nil, 5, true, 70},
		{"fast-fail", q, []ExecOption{WithExecutor(ExecutorFastFail)}, 1, true, 70},
		{"naive", q, []ExecOption{WithExecutor(ExecutorNaive)}, 1, true, 70},
		{"union", u, nil, 0, false, 70},
		{"pipelined, limit", q, []ExecOption{WithLimit(20)}, 2, false, 20},
	}
	for _, c := range cases {
		var flags []bool
		_, err := c.run.Execute(context.Background(), append([]ExecOption{OnBursts(func(_ []Tuple, last bool) {
			flags = append(flags, last)
		})}, c.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if len(flags) == 0 || slices.Contains(flags[:len(flags)-1], true) || flags[len(flags)-1] != c.last {
			t.Errorf("%s: last flags of the bursts = %v, want true %v, on the final call only", c.name, flags, c.last)
		}
		for _, adapter := range []bool{false, true} {
			var seen []Tuple
			bursts := 0
			stream := OnAnswers(func(burst []Tuple) {
				bursts++
				seen = append(seen, burst...)
			})
			if adapter {
				stream = OnAnswer(func(t Tuple) { seen = append(seen, t) })
			}
			res, err := c.run.Execute(context.Background(), append([]ExecOption{stream}, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			emitted := res.Answers.Tuples()
			if len(emitted) != c.answers || len(seen) != len(emitted) {
				t.Fatalf("%s (adapter %v): %d answers, %d streamed, want %d", c.name, adapter, len(emitted), len(seen), c.answers)
			}
			for i := range emitted {
				if emitted[i].Key() != seen[i].Key() {
					t.Fatalf("%s (adapter %v): answer %d streamed as %v, taken as %v",
						c.name, adapter, i, seen[i].Strings(), emitted[i].Strings())
				}
			}
			if !adapter && c.bursts != 0 && bursts != c.bursts {
				t.Errorf("%s: %d bursts, want %d", c.name, bursts, c.bursts)
			}
		}
	}
}

func TestSystemPlanIntrospection(t *testing.T) {
	sys := musicSystem(t)
	q, err := sys.Prepare("q(N) :- r1(A, N, Y1), r2(volare, Y2, A)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Plan() == nil {
		t.Fatal("no plan")
	}
	rel := strings.Join(q.RelevantRelations(), ",")
	if !strings.Contains(rel, "r3") {
		t.Errorf("r3 should be relevant: %s", rel)
	}
	dot := q.DGraphDOT()
	if !strings.Contains(dot, "digraph") {
		t.Error("DGraphDOT output malformed")
	}
	if !strings.Contains(q.OptimizedDOT(), "digraph") {
		t.Error("OptimizedDOT output malformed")
	}
}

func TestSystemNonAnswerable(t *testing.T) {
	sch, _ := ParseSchema(`
r1^io(A, C)
r2^oo(B, C)
`)
	sys := NewSystem(sch)
	q, err := sys.Prepare("q(C) :- r1(X, C)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Answerable() {
		t.Error("nothing provides domain A: not answerable")
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 0 || res.TotalAccesses() != 0 {
		t.Errorf("non-answerable: %v", res)
	}
	naive, err := q.Execute(context.Background(), WithExecutor(ExecutorNaive))
	if err != nil {
		t.Fatal(err)
	}
	if naive.Answers.Len() != 0 {
		t.Error("naive on non-answerable query must be empty")
	}
	if _, err := q.Execute(context.Background(), WithExecutor(ExecutorPipelined)); err != nil {
		t.Errorf("Stream on non-answerable: %v", err)
	}
}

func TestSystemUnboundRelationsDefaultEmpty(t *testing.T) {
	sch, _ := ParseSchema(`
r1^oo(A, B)
r2^io(B, C)
`)
	sys := NewSystem(sch)
	if err := sys.BindRows("r1", Row{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	// r2 never bound: Prepare auto-binds an empty source.
	q, err := sys.Prepare("q(C) :- r1(X, Y), r2(Y, C)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Len() != 0 {
		t.Errorf("answers = %v", res.SortedAnswers())
	}
}

func TestBindErrors(t *testing.T) {
	sch, _ := ParseSchema("r^oo(A, B)")
	sys := NewSystem(sch)
	if err := sys.BindRows("nope", Row{"x", "y"}); err == nil {
		t.Error("unknown relation: want error")
	}
}

func TestSystemLatency(t *testing.T) {
	sch, _ := ParseSchema("r3^oo(Artist, Album)")
	sys := NewSystem(sch, WithLatency(2*time.Millisecond))
	if err := sys.BindRows("r3", Row{"madonna", "like_a_virgin"}); err != nil {
		t.Fatal(err)
	}
	q, err := sys.Prepare("q(AL) :- r3(A, AL)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 2*time.Millisecond {
		t.Errorf("latency not applied: %v", res.Elapsed)
	}
}

// pubUCQText is a union of two overlapping disjuncts over pubUCQSystem.
const pubUCQText = `
q(X) :- pub1(P, X), conf(P, icde, Y)
q(X) :- pub2(P, X), conf(P, icde, Y)
`

// pubUCQSystem is a small publication system on which pubUCQText's
// disjuncts share an answer.
func pubUCQSystem(t *testing.T) *System {
	t.Helper()
	sch, _ := ParseSchema(`
pub1^io(Paper, Person)
pub2^oo(Paper, Person)
conf^ooo(Paper, ConfName, Year)
`)
	sys := NewSystem(sch)
	must(t, sys.BindRows("pub1", Row{"p1", "alice"}, Row{"p2", "bob"}))
	must(t, sys.BindRows("pub2", Row{"p1", "alice"}, Row{"p3", "carol"}))
	must(t, sys.BindRows("conf", Row{"p1", "icde", "2008"}, Row{"p2", "vldb", "2007"}, Row{"p3", "icde", "2008"}))
	return sys
}

func TestUCQEndToEnd(t *testing.T) {
	c := caseOf(t, pubUCQSystem(t), pubUCQText)
	if got := strings.Join(c.Ref.Answers, ";"); got != "alice;carol" {
		t.Errorf("UCQ answers = %s, want alice;carol", got)
	}
	checkFacade(t, c)
}

func TestUCQErrors(t *testing.T) {
	sch, _ := ParseSchema("r^oo(A, B)")
	sys := NewSystem(sch)
	if _, err := sys.PrepareUCQ("q(X) :- r(X, Y)\nq(X, Y) :- r(X, Y)"); err == nil {
		t.Error("mismatched arity: want error")
	}
	if _, err := sys.PrepareUCQ("q(X) :- nosuch(X)"); err == nil {
		t.Error("unknown relation: want error")
	}
}

func TestExecuteOptsAblation(t *testing.T) {
	sys := musicSystem(t)
	q, err := sys.Prepare("q(N) :- r1(A, N, Y1), r2(volare, Y2, A)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Execute(context.Background(), WithExecOptions(Options{NoMetaCache: true, NoEarlyFailure: true}))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.SortedAnswers(), ";"); got != "italy" {
		t.Errorf("ablation answers = %s", got)
	}
}

// cachedMusicSystem is musicSystem over a System with a cross-query cache.
func cachedMusicSystem(t *testing.T, opts ...SystemOption) *System {
	t.Helper()
	sch, err := ParseSchema(`
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch, opts...)
	must(t, sys.BindRows("r1", Row{"modugno", "italy", "1928"}, Row{"madonna", "usa", "1958"}))
	must(t, sys.BindRows("r2", Row{"volare", "1958", "modugno"}, Row{"vogue", "1990", "madonna"}))
	must(t, sys.BindRows("r3", Row{"madonna", "like_a_virgin"}))
	return sys
}

// TestCachedSystemSecondRunNoProbes is the cross-query cache acceptance
// property: the second execution of the same query probes no source at all,
// for the fast-failing, streaming and naive strategies alike (the oracle's
// warm-zero), and the cache counts its hits and misses.
func TestCachedSystemSecondRunNoProbes(t *testing.T) {
	const text = "q(N) :- r1(A, N, Y1), r2(volare, Y2, A)"
	checkFacade(t, caseOf(t, cachedMusicSystem(t), text))
	sys := cachedMusicSystem(t, WithCache(CacheOptions{}))
	q, err := sys.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := q.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if tot := sys.AccessCache().Totals(); tot.Hits == 0 || tot.Misses == 0 {
		t.Errorf("cache totals = %+v, want hits and misses", tot)
	}
}

// TestCachedSystemRebindInvalidates: rebinding a relation drops its cached
// accesses, so the next run probes it again and sees the new data.
func TestCachedSystemRebindInvalidates(t *testing.T) {
	sys := cachedMusicSystem(t, WithCache(CacheOptions{}))
	q, err := sys.Prepare("q(AL) :- r3(A, AL)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	must(t, sys.BindRows("r3", Row{"madonna", "like_a_prayer"}))
	res, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAccesses() == 0 {
		t.Error("rebinding did not invalidate the cache")
	}
	if got := strings.Join(res.SortedAnswers(), ";"); got != "like_a_prayer" {
		t.Errorf("answers = %s, want like_a_prayer", got)
	}
}

// TestBindDatabaseUnderQueries: BindDatabase binds relation by relation into
// the registry executions read, as Bind does — it used to replace the
// registry itself, a write the race detector reported against Query.Execute
// — and a query running beside it answers as before: every binding holds the
// same tables.
func TestBindDatabaseUnderQueries(t *testing.T) {
	ctx := context.Background()
	sch, db := gen.Publication(5, gen.SmallPublication())
	sys := NewSystem(sch, WithCache(CacheOptions{}))
	must(t, sys.BindDatabase(db))
	q, err := sys.Prepare(gen.PublicationQueries[0])
	must(t, err)
	first, err := q.Execute(ctx)
	must(t, err)
	want := first.SortedAnswers()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			res, err := q.Execute(ctx)
			if err == nil && !slices.Equal(res.SortedAnswers(), want) {
				err = fmt.Errorf("run %d answered %v beside BindDatabase, want %v", i, res.SortedAnswers(), want)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 20; i++ {
		must(t, sys.BindDatabase(db))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestMetricsOption: an execution handed a server's source-level families
// (Options.Metrics) records into them exactly the probes that reach a source,
// and reports what it asked for — answered by the cache or not — as
// Result.Demanded.
func TestMetricsOption(t *testing.T) {
	reg := obs.NewRegistry()
	sch, _ := ParseSchema(`
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`)
	sys := NewSystem(sch, WithCache(CacheOptions{}))
	must(t, sys.BindRows("r3", Row{"madonna", "like_a_virgin"}))
	q, err := sys.Prepare("q(A) :- r3(X, A)")
	if err != nil {
		t.Fatal(err)
	}
	metrics := WithExecOptions(Options{Metrics: obs.NewProbeMetrics(reg)})
	res, err := q.Execute(context.Background(), metrics)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAccesses() == 0 || res.Demanded != res.TotalAccesses() {
		t.Fatalf("cold run: %d accesses for %d demanded, want the same and at least one",
			res.TotalAccesses(), res.Demanded)
	}
	var out strings.Builder
	if err := reg.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	want := `toorjah_source_accesses_total{relation="r3"} ` +
		strconv.Itoa(res.TotalAccesses())
	if !strings.Contains(out.String(), want) {
		t.Fatalf("metrics missing %q:\n%s", want, out.String())
	}
	// A cache-warm repeat asks for the same accesses and must not advance the
	// probed-access counter.
	warm, err := q.Execute(context.Background(), metrics)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Demanded != res.Demanded || warm.TotalAccesses() != 0 {
		t.Fatalf("warm run: %d accesses for %d demanded, want 0 for %d",
			warm.TotalAccesses(), warm.Demanded, res.Demanded)
	}
	out.Reset()
	if err := reg.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), want) {
		t.Fatalf("cache-warm repeat moved the probe counter, want still %q:\n%s", want, out.String())
	}
}

// TestUnionMetersWhatItProbes: a union opens the relations its disjuncts'
// plans probe and no others, so a bound relation no disjunct touches gets
// no source series on the server's metrics.
func TestUnionMetersWhatItProbes(t *testing.T) {
	reg := obs.NewRegistry()
	sch, _ := ParseSchema(`
r1^ioo(Artist, Nation, Year)
r3^oo(Artist, Album)
`)
	sys := NewSystem(sch, WithCache(CacheOptions{}))
	must(t, sys.BindRows("r1", Row{"madonna", "usa", "1958"}))
	must(t, sys.BindRows("r3", Row{"madonna", "like_a_virgin"}))
	u, err := sys.PrepareUCQ("q(A) :- r3(X, A)\nq(A) :- r3(A, X)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Execute(context.Background(), WithExecOptions(Options{Metrics: obs.NewProbeMetrics(reg)}))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SortedAnswers(); len(got) != 2 || res.Stats["r3"].Accesses == 0 {
		t.Fatalf("union answered %v with stats %v, want 2 answers from r3", got, res.Stats)
	}
	var out strings.Builder
	if err := reg.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `relation="r3"`) || strings.Contains(out.String(), `relation="r1"`) {
		t.Errorf("metrics after a union over r3 alone:\n%s", out.String())
	}
}
