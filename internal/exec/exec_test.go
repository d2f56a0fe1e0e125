package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"toorjah/internal/cache"
	"toorjah/internal/core"
	"toorjah/internal/cq"
	"toorjah/internal/datalog"
	"toorjah/internal/oracle"
	"toorjah/internal/plan"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// fixture bundles everything needed to run a query in all strategies.
type fixture struct {
	sch  *schema.Schema
	q    *cq.CQ
	ty   *cq.Typing
	plan *plan.Plan
	reg  *source.Registry
}

// setup builds a fixture from schema text, query text and table rows.
func setup(t testing.TB, schemaText, queryText string, data map[string][]storage.Row) *fixture {
	t.Helper()
	sch := schema.MustParse(schemaText)
	db := storage.NewDatabase()
	for name, rows := range data {
		rel := sch.Relation(name)
		if rel == nil {
			t.Fatalf("data for unknown relation %s", name)
		}
		tab, err := db.Create(name, rel.Arity())
		if err != nil {
			t.Fatal(err)
		}
		tab.InsertAll(rows)
	}
	return setupDB(t, sch, db, queryText)
}

// setupDB plans queryText over sch and binds db's tables as its sources.
func setupDB(t testing.TB, sch *schema.Schema, db *storage.Database, queryText string) *fixture {
	t.Helper()
	f, err := newFixture(sch, db, cq.MustParse(queryText))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// each adapts a per-answer callback to the executors' burst callback, the
// way the façade's OnAnswer does.
func each(f func(datalog.Tuple)) func([]datalog.Tuple, bool) {
	return func(burst []datalog.Tuple, _ bool) {
		for _, t := range burst {
			f(t)
		}
	}
}

// errNotAnswerable is newFixture's report that the query has no plan.
var errNotAnswerable = errors.New("query is not answerable")

func newFixture(sch *schema.Schema, db *storage.Database, q *cq.CQ) (*fixture, error) {
	p, err := core.PrepareOpts(sch, q, core.Options{SkipMinimize: true})
	if err != nil {
		return nil, err
	}
	if !p.Answerable() {
		return nil, errNotAnswerable
	}
	reg, err := source.FromDatabase(sch, db, 0)
	if err != nil {
		return nil, err
	}
	return &fixture{sch: sch, q: q, ty: p.Typing, plan: p.Plan, reg: reg}, nil
}

// oracleCase is the fixture as an oracle case: its query over its tables,
// with the string-space reference's outcome.
func (f *fixture) oracleCase(t *testing.T) *oracle.Case {
	t.Helper()
	db := storage.NewDatabase()
	for _, name := range f.reg.Names() {
		if err := db.Attach(f.reg.Source(name).(*source.TableSource).Table()); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := oracle.Reference(f.sch, f.reg, []*cq.CQ{f.q})
	if err != nil {
		t.Fatal(err)
	}
	return &oracle.Case{Schema: f.sch, DB: db, Disjuncts: []*cq.CQ{f.q}, Ref: ref}
}

func (f *fixture) naive(t *testing.T) *Result {
	t.Helper()
	r, err := Naive(context.Background(), f.sch, f.reg, f.q, f.ty, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (f *fixture) fast(t *testing.T) *Result {
	t.Helper()
	r, err := FastFailing(context.Background(), f.plan, f.reg, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (f *fixture) piped(t *testing.T) *Result {
	t.Helper()
	r, err := Pipelined(context.Background(), f.plan, f.reg, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertAllAgree holds every strategy to the oracle (checkExecutors); it
// returns (naive, fast) for further access-count assertions.
func assertAllAgree(t *testing.T, f *fixture) (*Result, *Result) {
	t.Helper()
	checkExecutors(t, f.oracleCase(t), f.reg, map[string]*cache.Cache{})
	return f.naive(t), f.fast(t)
}

// TestPaperExample2Extraction reproduces the extraction chain of paper
// Example 2: starting from a1, values hop r1 -> r3 -> r2 -> r3 -> r2 and
// only answer b1 is obtainable; b3 remains hidden.
func TestPaperExample2Extraction(t *testing.T) {
	f := setup(t, `
r1^io(A, C)
r2^io(B, C)
r3^io(C, B)
`, "q1(B) :- r1(a1, C), r2(B, C)", map[string][]storage.Row{
		"r1": {{"a1", "c1"}, {"a1", "c3"}},
		"r2": {{"b1", "c1"}, {"b2", "c2"}, {"b3", "c3"}},
		"r3": {{"c1", "b2"}, {"c2", "b1"}},
	})
	n, ff := assertAllAgree(t, f)
	if got := strings.Join(n.SortedAnswers(), ";"); got != "b1" {
		t.Errorf("answers = %s, want b1 (b3 is not obtainable)", got)
	}
	_ = ff
}

// TestExample1MusicRecursive reproduces paper Example 1: answering
// q(N) :- r1(A, N, Y1), r2(volare, Y2, A) requires accessing r3, which the
// query never mentions, to obtain artist names.
func TestExample1MusicRecursive(t *testing.T) {
	f := setup(t, `
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`, "q(N) :- r1(A, N, Y1), r2(volare, Y2, A)", map[string][]storage.Row{
		// The extraction chain: r3 seeds artist madonna; r1(madonna) yields
		// year 1958; r2 probed with 1958 yields volare by modugno; r1 probed
		// with modugno yields the nationality. Note modugno is reachable
		// only through r2's output — the recursion of Example 1.
		"r1": {{"modugno", "italy", "1928"}, {"madonna", "usa", "1958"}},
		"r2": {{"volare", "1958", "modugno"}, {"vogue", "1990", "madonna"}},
		"r3": {{"madonna", "like_a_virgin"}},
	})
	n, ff := assertAllAgree(t, f)
	if got := strings.Join(ff.SortedAnswers(), ";"); got != "italy" {
		t.Errorf("answers = %s, want italy", got)
	}
	// r3 must be relevant (it seeds artist values) and accessed by the
	// optimized plan.
	if _, ok := ff.Stats["r3"]; !ok {
		t.Errorf("optimized plan should access r3: %v", ff.Stats)
	}
	_ = n
}

// TestIrrelevantNeverAccessed: in Example 5, r3 is irrelevant and the
// optimized plan must not probe it, while the naive plan does.
func TestIrrelevantNeverAccessed(t *testing.T) {
	f := setup(t, `
r1^io(A, B)
r2^io(B, C)
r3^io(C, A)
`, "q(C) :- r1(a, B), r2(B, C)", map[string][]storage.Row{
		"r1": {{"a", "b1"}, {"x", "b2"}},
		"r2": {{"b1", "c1"}, {"b2", "c2"}},
		"r3": {{"c1", "x"}, {"c2", "a"}},
	})
	n, ff := assertAllAgree(t, f)
	if _, ok := ff.Stats["r3"]; ok {
		t.Errorf("optimized plan accessed irrelevant r3: %v", ff.Stats)
	}
	if _, ok := n.Stats["r3"]; !ok {
		t.Errorf("naive plan should access r3: %v", n.Stats)
	}
	if ff.TotalAccesses() >= n.TotalAccesses() {
		t.Errorf("optimized %d accesses, naive %d: no saving", ff.TotalAccesses(), n.TotalAccesses())
	}
}

// TestEarlyFailure: when a group's caches make the subquery unsatisfiable,
// later groups are never touched.
func TestEarlyFailure(t *testing.T) {
	f := setup(t, `
a^oo(P, D1)
lim^io(P, D2)
`, "q(Z) :- a(X, Y), lim(X, Z)", map[string][]storage.Row{
		"a":   {}, // empty: the join can never succeed
		"lim": {{"p1", "z1"}},
	})
	ff := f.fast(t)
	if !ff.EarlyEmpty {
		t.Error("expected early-empty detection")
	}
	if len(ff.SortedAnswers()) != 0 {
		t.Errorf("answers = %v", ff.SortedAnswers())
	}
	if _, ok := ff.Stats["lim"]; ok {
		t.Error("lim must not be accessed after early failure")
	}
	// Ablation: without early failure, lim is still not probed (no values
	// derivable) but no early-empty flag is set.
	r2, err := FastFailing(context.Background(), f.plan, f.reg, Options{NoEarlyFailure: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.EarlyEmpty {
		t.Error("ablation must not set EarlyEmpty")
	}
	if len(r2.SortedAnswers()) != 0 {
		t.Errorf("ablation answers = %v", r2.SortedAnswers())
	}
}

// TestEarlyFailureSavesAccesses: a failing first group avoids probing an
// expensive later source even when bindings for it exist.
func TestEarlyFailureSavesAccesses(t *testing.T) {
	f := setup(t, `
a^oo(P, D1)
b^oo(P, D2)
lim^io(P, D3)
`, "q(Z) :- a(X, Y1), b(X, Y2), lim(X, Z)", map[string][]storage.Row{
		"a":   {{"p1", "d1"}},
		"b":   {{"p2", "d2"}}, // disjoint from a: join fails
		"lim": {{"p1", "z"}, {"p2", "z"}},
	})
	ff := f.fast(t)
	if !ff.EarlyEmpty {
		t.Errorf("expected early empty; stats %v", ff.Stats)
	}
	if _, ok := ff.Stats["lim"]; ok {
		t.Error("lim probed despite failed join of a and b")
	}
	// Sanity: strong-arc conjunction would also prevent the probe (empty
	// intersection); the early test additionally reports emptiness without
	// evaluating lim's group at all.
}

// TestMetaCacheSharing: two occurrences of a relation with the same binding
// probe the source once.
func TestMetaCacheSharing(t *testing.T) {
	f := setup(t, `
seed^o(A)
r^io(A, B)
`, "q(X, Y1, Y2) :- seed(X), r(X, Y1), r(X, Y2)", map[string][]storage.Row{
		"seed": {{"a1"}, {"a2"}},
		"r":    {{"a1", "b1"}, {"a2", "b2"}},
	})
	ff := f.fast(t)
	if got := ff.Stats["r"].Accesses; got != 2 {
		t.Errorf("r accessed %d times, want 2 (meta-cache shares occurrences)", got)
	}
	// Ablation: without the meta-cache, both occurrences probe.
	r2, err := FastFailing(context.Background(), f.plan, f.reg, Options{NoMetaCache: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Stats["r"].Accesses; got != 4 {
		t.Errorf("ablation: r accessed %d times, want 4", got)
	}
	if strings.Join(r2.SortedAnswers(), ";") != strings.Join(ff.SortedAnswers(), ";") {
		t.Error("ablation changed the answers")
	}
}

// TestNoMetaCacheFoldsByOwner: without the meta-cache, a relation named twice
// keeps one queue for both occurrences, so a round trip of 16 accesses can
// carry bindings of each — r's first occurrence asks for seed values, its
// second for what the first extracted. A landed round trip must fold each
// extraction into the cache of the occurrence that asked: the answers and
// the accesses per relation are those of one access per round trip.
func TestNoMetaCacheFoldsByOwner(t *testing.T) {
	const n = 100
	data := map[string][]storage.Row{}
	for i := 0; i < n; i++ {
		x, y, z := fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i), fmt.Sprintf("z%d", i)
		data["seed"] = append(data["seed"], storage.Row{x})
		data["r"] = append(data["r"], storage.Row{x, y}, storage.Row{y, z})
	}
	f := setup(t, `
seed^o(A)
r^io(A, A)
`, "q(X, Z) :- seed(X), r(X, Y), r(Y, Z)", data)
	onBothPaths(t, f, func(t *testing.T, f *fixture) {
		var runs [2]string
		for i, mb := range []int{1, 16} {
			res, err := Pipelined(context.Background(), f.plan, f.reg, Options{MaxBatch: mb, NoMetaCache: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = fmt.Sprintf("answers %v, accesses seed %d r %d", res.SortedAnswers(), res.Stats["seed"].Accesses, res.Stats["r"].Accesses)
		}
		if runs[0] != runs[1] {
			t.Errorf("max batch 16: %s\nmax batch 1: %s", runs[1], runs[0])
		}
		if want := fmt.Sprintf("accesses seed 1 r %d", 2*n); !strings.HasSuffix(runs[0], want) {
			t.Errorf("max batch 1: %s; want %s", runs[0], want)
		}
	})
}

// TestOwnerRunsAcrossAFlight: a round trip may carry the access tuples of
// two cache nodes, and each extraction must fold into the cache of the node
// that asked, found through the queue's runs. With one round trip in flight
// and a batch bound of 40, r's first occurrence queues x0…x99 for its 100
// seeds and sends them 40 at a time; the second occurrence queues y0…y39
// behind x80…x99 while x40…x79 are out, so the third round trip carries
// x80…x99 for the first occurrence and y0…y19 for the second. With the
// meta-cache and without, the answers and the access set are the naive
// algorithm's, and some round trip did mix the two occurrences.
func TestOwnerRunsAcrossAFlight(t *testing.T) {
	const n = 100
	data := map[string][]storage.Row{}
	for i := 0; i < n; i++ {
		x, y, next := fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i), fmt.Sprintf("x%d", (i+1)%n)
		data["seed"] = append(data["seed"], storage.Row{x})
		data["r"] = append(data["r"], storage.Row{x, y}, storage.Row{y, next})
	}
	f := setup(t, `
seed^o(A)
r^io(A, A)
`, "q(X, Z) :- seed(X), r(X, Y), r(Y, Z)", data).blocking()
	ctx := context.Background()
	reg, counters := sourcetest.Counted(f.reg, true)
	want, err := Naive(ctx, f.sch, reg, f.q, f.ty, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAccesses := sortedKeys(counters["r"].AccessSet())
	if len(want.SortedAnswers()) != n || len(wantAccesses) != 2*n {
		t.Fatalf("naive: %d answers and %d accesses to r, want %d and %d", len(want.SortedAnswers()), len(wantAccesses), n, 2*n)
	}
	for _, noMeta := range []bool{true, false} {
		reg, counters := sourcetest.Counted(f.reg, true)
		spy := &mixSpy{Wrapper: counters["r"]}
		reg.Bind(spy)
		got, err := Pipelined(ctx, f.plan, reg, Options{MaxBatch: 40, NoMetaCache: noMeta, parallelism: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := strings.Join(got.SortedAnswers(), ";"), strings.Join(want.SortedAnswers(), ";"); g != w {
			t.Errorf("no meta-cache %v: answers\n  %s\nwant\n  %s", noMeta, g, w)
		}
		if g := sortedKeys(counters["r"].AccessSet()); !slices.Equal(g, wantAccesses) {
			t.Errorf("no meta-cache %v: r's accesses\n  %v\nwant\n  %v", noMeta, g, wantAccesses)
		}
		if spy.mixed.Load() == 0 {
			t.Errorf("no meta-cache %v: no round trip carried both occurrences' accesses", noMeta)
		}
	}
}

// mixSpy counts the round trips whose block holds both an x and a y value.
type mixSpy struct {
	source.Wrapper
	mixed atomic.Int32
}

func (s *mixSpy) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	var x, y bool
	for _, v := range sym.Strs(ids) {
		x, y = x || v[0] == 'x', y || v[0] == 'y'
	}
	if x && y {
		s.mixed.Add(1)
	}
	return s.Wrapper.Probe(ctx, ids, out)
}

// TestAccessSubsetProperty: on a pipeline schema, every access made by the
// optimized executors is also made by the naive one (the oracle's
// within-naive).
func TestAccessSubsetProperty(t *testing.T) {
	f := setup(t, `
free^oo(A, B)
mid^io(B, C)
last^io(C, D)
`, "q(D) :- free(X, Y), mid(Y, Z), last(Z, D)", map[string][]storage.Row{
		"free": {{"a1", "b1"}, {"a2", "b2"}},
		"mid":  {{"b1", "c1"}, {"b2", "c2"}, {"b9", "c9"}},
		"last": {{"c1", "d1"}, {"c2", "d2"}},
	})
	checkExecutors(t, f.oracleCase(t), f.reg, map[string]*cache.Cache{})
}

// TestQ1PublicationWorkload runs the paper's q1 on a small hand-built
// instance and checks relevance-driven savings.
func TestQ1PublicationWorkload(t *testing.T) {
	f := setup(t, `
pub1^io(Paper, Person)
pub2^oo(Paper, Person)
conf^ooo(Paper, ConfName, Year)
rev^ooi(Person, ConfName, Year)
sub^oi(Paper, Person)
rev_icde^iio(Person, Paper, Eval)
`, "q1(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)", map[string][]storage.Row{
		"pub1":     {{"p1", "alice"}, {"p2", "bob"}},
		"pub2":     {{"p1", "alice"}, {"p3", "carol"}},
		"conf":     {{"p1", "icde", "2008"}, {"p2", "vldb", "2007"}},
		"rev":      {{"alice", "icde", "2008"}, {"carol", "vldb", "2007"}},
		"sub":      {{"p9", "alice"}},
		"rev_icde": {{"alice", "p1", "acc"}},
	})
	n, ff := assertAllAgree(t, f)
	if got := strings.Join(ff.SortedAnswers(), ";"); got != "alice" {
		t.Errorf("q1 answers = %s, want alice", got)
	}
	for _, irr := range []string{"pub2", "sub", "rev_icde"} {
		if _, ok := ff.Stats[irr]; ok {
			t.Errorf("optimized plan accessed irrelevant %s", irr)
		}
		if _, ok := n.Stats[irr]; !ok {
			t.Errorf("naive plan should access %s", irr)
		}
	}
}

// TestNegationAcrossExecutors: safe negation agrees across strategies.
func TestNegationAcrossExecutors(t *testing.T) {
	f := setup(t, `
r^oo(A, B)
s^io(B, C)
`, "q(X) :- r(X, Y), s(Y, Z), not s(Y, Z)", map[string][]storage.Row{
		"r": {{"a1", "b1"}, {"a2", "b2"}},
		"s": {{"b1", "c1"}},
	})
	// not s(Y, Z) with s(Y, Z) in the body is always false when satisfied:
	// answer must be empty, consistently.
	n, ff := assertAllAgree(t, f)
	if len(n.SortedAnswers()) != 0 || len(ff.SortedAnswers()) != 0 {
		t.Errorf("answers should be empty: %v / %v", n.SortedAnswers(), ff.SortedAnswers())
	}
}

// TestNegationFiltersAnswers: a meaningful negation over a limited source.
func TestNegationFiltersAnswers(t *testing.T) {
	f := setup(t, `
person^oo(Name, City)
blocked^io(Name, City)
`, "q(N) :- person(N, C), not blocked(N, C)", map[string][]storage.Row{
		"person":  {{"alice", "rome"}, {"bob", "milan"}},
		"blocked": {{"bob", "milan"}},
	})
	n, ff := assertAllAgree(t, f)
	if got := strings.Join(ff.SortedAnswers(), ";"); got != "alice" {
		t.Errorf("answers = %s, want alice", got)
	}
	_ = n
}

// TestPipelinedStreamsAnswers: incremental answers arrive via the callback,
// one burst per landed round trip that derived any, and the bursts laid end
// to end are the answers in the order they were emitted.
func TestPipelinedStreamsAnswers(t *testing.T) {
	rows := []storage.Row{}
	for i := 0; i < 50; i++ {
		rows = append(rows, storage.Row{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)})
	}
	mid := []storage.Row{}
	for i := 0; i < 50; i++ {
		mid = append(mid, storage.Row{fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)})
	}
	f := setup(t, `
free^oo(A, B)
mid^io(B, C)
`, "q(X, Z) :- free(X, Y), mid(Y, Z)", map[string][]storage.Row{
		"free": rows,
		"mid":  mid,
	})
	var streamed []datalog.Tuple
	bursts := 0
	r, err := Pipelined(context.Background(), f.plan, f.reg, Options{}, func(burst []datalog.Tuple, _ bool) {
		if len(burst) == 0 {
			t.Error("empty burst delivered")
		}
		bursts++
		streamed = append(streamed, burst...) // the slice itself is only valid during the call
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Answers.Len() != 50 {
		t.Errorf("answers = %d, want 50", r.Answers.Len())
	}
	if len(streamed) != r.Answers.Len() {
		t.Fatalf("streamed %d answers, result has %d", len(streamed), r.Answers.Len())
	}
	for i, tu := range r.Answers.Tuples() {
		if !slices.Equal(tu, streamed[i]) {
			t.Fatalf("answer %d streamed as %v, emitted as %v", i, streamed[i].Strings(), tu.Strings())
		}
	}
	// Every mid round trip derives answers, the one free access none.
	if want := r.Stats["mid"].Batches; bursts != want || want < 2 {
		t.Errorf("%d bursts for %d round trips on mid", bursts, want)
	}
	if r.TimeToFirst <= 0 || r.TimeToFirst > r.Elapsed {
		t.Errorf("TimeToFirst = %v (elapsed %v)", r.TimeToFirst, r.Elapsed)
	}
}

// TestPipelinedParallelMatchesSequential on a deeper chain with fan-out.
func TestPipelinedParallelMatchesSequential(t *testing.T) {
	data := map[string][]storage.Row{"seed": {}, "r": {}, "s": {}}
	for i := 0; i < 20; i++ {
		data["seed"] = append(data["seed"], storage.Row{fmt.Sprintf("a%d", i)})
		data["r"] = append(data["r"], storage.Row{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", (i+1)%20)})
		data["s"] = append(data["s"], storage.Row{fmt.Sprintf("b%d", i), fmt.Sprintf("a%d", (i+7)%20)})
	}
	f := setup(t, `
seed^o(A)
r^io(A, B)
s^io(B, A)
`, "q(Y) :- r(X, Y), s(Y2, X2)", data)
	_, ff := assertAllAgree(t, f)
	if pp := f.piped(t); pp.TotalAccesses() != ff.TotalAccesses() {
		t.Errorf("pipelined accesses %d, fast-failing %d (meta-cache should dedupe)",
			pp.TotalAccesses(), ff.TotalAccesses())
	}
}

// TestCartesianInputBlowup: a relation with two input arguments forces the
// naive plan into the full |Person| × |Paper| probe cross-product the paper
// reports for rev_icde. The paper's cache rule
// r̂(I1,I2,O) ← r(I1,I2,O), s1(I1), s2(I2) restricts each input position to
// its domain relation independently, so the optimized plan still probes a
// product — but of the far smaller join-restricted domains.
func TestCartesianInputBlowup(t *testing.T) {
	data := map[string][]storage.Row{}
	for i := 0; i < 30; i++ {
		data["people"] = append(data["people"], storage.Row{fmt.Sprintf("per%d", i)})
		data["papers"] = append(data["papers"], storage.Row{fmt.Sprintf("pap%d", i)})
	}
	for i := 0; i < 15; i++ {
		data["wrote"] = append(data["wrote"], storage.Row{fmt.Sprintf("per%d", i), fmt.Sprintf("pap%d", i)})
		if i%2 == 0 {
			data["revd"] = append(data["revd"], storage.Row{fmt.Sprintf("per%d", i), fmt.Sprintf("pap%d", i), "acc"})
		}
	}
	f := setup(t, `
people^o(Person)
papers^o(Paper)
wrote^oo(Person, Paper)
revd^iio(Person, Paper, Eval)
`, "q(X, P) :- wrote(X, P), revd(X, P, E)", data)
	n, ff := assertAllAgree(t, f)
	if got := len(ff.SortedAnswers()); got != 8 {
		t.Errorf("answers = %d, want 8", got)
	}
	// Naive: 30 persons x 30 papers = 900 probes of revd; optimized: only
	// the 15 x 15 values wrote can justify.
	if got := n.Stats["revd"].Accesses; got != 900 {
		t.Errorf("naive revd accesses = %d, want 900", got)
	}
	if got := ff.Stats["revd"].Accesses; got != 225 {
		t.Errorf("optimized revd accesses = %d, want 225", got)
	}
	// The irrelevant free domains are not even read by the optimized plan.
	if _, ok := ff.Stats["people"]; ok {
		t.Error("optimized plan accessed irrelevant people")
	}
}

// TestNullaryRelation: nullary atoms are probed once and join as guards.
func TestNullaryRelation(t *testing.T) {
	f := setup(t, `
flag^()
r^oo(A, B)
`, "q(X) :- r(X, Y), flag()", map[string][]storage.Row{
		"flag": {{}},
		"r":    {{"a", "b"}},
	})
	n, ff := assertAllAgree(t, f)
	if got := strings.Join(ff.SortedAnswers(), ";"); got != "a" {
		t.Errorf("answers = %s", got)
	}
	if got := ff.Stats["flag"].Accesses; got != 1 {
		t.Errorf("flag accesses = %d, want 1", got)
	}
	_ = n
}

// TestNullaryRelationEmpty: an empty nullary relation annihilates the query.
func TestNullaryRelationEmpty(t *testing.T) {
	f := setup(t, `
flag^()
r^oo(A, B)
`, "q(X) :- r(X, Y), flag()", map[string][]storage.Row{
		"flag": {},
		"r":    {{"a", "b"}},
	})
	_, ff := assertAllAgree(t, f)
	if len(ff.SortedAnswers()) != 0 {
		t.Errorf("answers = %v, want none", ff.SortedAnswers())
	}
}

// TestEmptyDomainsNoAnswers: all sources empty.
func TestEmptyDomainsNoAnswers(t *testing.T) {
	f := setup(t, `
free^oo(A, B)
mid^io(B, C)
`, "q(Z) :- free(X, Y), mid(Y, Z)", map[string][]storage.Row{})
	n, ff := assertAllAgree(t, f)
	if len(n.SortedAnswers()) != 0 || len(ff.SortedAnswers()) != 0 {
		t.Error("answers should be empty")
	}
}

// TestConstantsInHead: head constants survive execution.
func TestConstantsInHead(t *testing.T) {
	f := setup(t, `
r^oo(A, B)
`, "q(tag, X) :- r(X, tag)", map[string][]storage.Row{
		"r": {{"a1", "tag"}, {"a2", "other"}},
	})
	_, ff := assertAllAgree(t, f)
	if got := strings.Join(ff.SortedAnswers(), ";"); got != "tag,a1" {
		t.Errorf("answers = %s, want tag,a1", got)
	}
}
