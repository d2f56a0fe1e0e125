package toorjah

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"toorjah/internal/core"
	"toorjah/internal/cq"
	"toorjah/internal/oracle"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
	"toorjah/internal/storage"
)

var shapeExecutors = []struct {
	name string
	e    Executor
}{{"naive", ExecutorNaive}, {"fast-fail", ExecutorFastFail}, {"pipelined", ExecutorPipelined}}

// TestConstantsTravelAsValues is the regression test for constants that
// reached the optimized executors as the identifier their artificial
// relation was named by — lower-cased, punctuation hex-escaped, a collision
// suffix appended — instead of as the value written in the query: naive,
// fast-fail and pipelined answer alike on constants no identifier can
// spell, with a decoy row sitting at each mangled form.
func TestConstantsTravelAsValues(t *testing.T) {
	sch, err := ParseSchema("r^io(A, B)")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch)
	if err := sys.BindRows("r",
		Row{"Hello World", "x"}, Row{"hello world", "lower"}, Row{"hellox20world", "decoy1"}, Row{"hellox20world_2", "decoy2"},
		Row{"a-b", "dash"}, Row{"ax2db", "weird"},
		Row{"É", "accent"}, Row{"xc3x89", "decoy3"}, Row{"é", "small accent"},
		Row{"", "nothing"}, Row{"empty", "decoy4"},
		Row{"l_0", "slot"}, Row{"$0", "placeholder"}, Row{"0", "decoy5"},
		Row{"it's", "unquotable"},
	); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ query, want string }{
		{"q(Y) :- r('Hello World', Y)", "x"},
		{"q(Y) :- r('hello world', Y)", "lower"},
		{"q(Y) :- r('a-b', Y)", "dash"},
		{"q(Y) :- r(ax2db, Y)", "weird"},
		{"q(Y) :- r('É', Y)", "accent"},
		{"q(Y) :- r('é', Y)", "small accent"},
		{"q(Y) :- r('', Y)", "nothing"},
		{"q(Y) :- r(empty, Y)", "decoy4"},
		{"q(Y) :- r(l_0, Y)", "slot"},
		{"q(Y) :- r('$0', Y)", "placeholder"},
		{"q(Y) :- r('HELLO WORLD', Y)", ""},
		// Both at once: one collides with the other's mangled form.
		{"q(Y, Z) :- r('Hello World', Y), r('hello world', Z)", "x,lower"},
		{"q('Hello World', Y) :- r('Hello World', Y)", "Hello World,x"},
	} {
		q, err := sys.Prepare(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		for _, ex := range shapeExecutors {
			res, err := q.Execute(context.Background(), WithExecutor(ex.e))
			if err != nil {
				t.Fatalf("%s under %s: %v", c.query, ex.name, err)
			}
			if got := strings.Join(res.SortedAnswers(), ";"); got != c.want {
				t.Errorf("%s under %s answers [%s], want [%s]", c.query, ex.name, got, c.want)
			}
		}
	}
	// A constant a text cannot quote still travels in a query that is built.
	built := &CQ{Name: "q", Head: []cq.Term{cq.V("Y")}, Body: []cq.Atom{cq.NewAtom("r", cq.C("it's"), cq.V("Y"))}}
	q, err := sys.PrepareCQ(built)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range shapeExecutors {
		res, err := q.Execute(context.Background(), WithExecutor(ex.e))
		if err != nil || strings.Join(res.SortedAnswers(), ";") != "unquotable" {
			t.Errorf("built query under %s: %v, %v", ex.name, res.SortedAnswers(), err)
		}
	}
	if st := sys.PlanCacheStats(); st.Shapes != 3 {
		t.Errorf("%d shapes planned, want 3: one constant, two constants, constant in the head", st.Shapes)
	}
}

// auditedSystem builds a system over db with every table source wrapped in
// an auditing Counter beneath whatever the System layers on top (cache,
// latency), so the counters observe exactly the probes that reach the
// tables.
func auditedSystem(t *testing.T, sch *schema.Schema, db *storage.Database, opts ...SystemOption) (*System, map[string]*sourcetest.Counter) {
	t.Helper()
	sys := NewSystem(sch, opts...)
	counters := make(map[string]*sourcetest.Counter)
	for _, rel := range sch.Relations() {
		tab := db.Table(rel.Name)
		if tab == nil {
			tab = storage.NewTable(rel.Name, rel.Arity())
		}
		src, err := source.NewTableSource(rel, tab)
		if err != nil {
			t.Fatal(err)
		}
		if sys.latency > 0 {
			src = src.WithLatency(sys.latency)
		}
		counters[rel.Name] = sourcetest.NewCounter(src, true)
		sys.Bind(counters[rel.Name])
	}
	return sys, counters
}

// observe prepares the disjuncts of a query — one is a CQ, several a union —
// on sys and executes it once, reporting the answers, the accesses that
// reached the counters (audited, as a set) and how many the result counts.
// A union runs one disjunct at a time: two running at once may both make an
// access the cross-disjunct sharing would otherwise save. The setting goes
// last and sets MaxConcurrent alone, so a caller's WithExecOptions cannot
// undo it.
func observe(t *testing.T, sys *System, counters map[string]*sourcetest.Counter, disjuncts []*CQ, options ...ExecOption) (oracle.Outcome, []*Query) {
	t.Helper()
	var (
		run interface {
			Execute(context.Context, ...ExecOption) (*Result, error)
		}
		prepared []*Query
	)
	if len(disjuncts) == 1 {
		q, err := sys.PrepareCQ(disjuncts[0])
		if err != nil {
			t.Fatalf("prepare %s: %v", disjuncts[0], err)
		}
		run, prepared = q, []*Query{q}
	} else {
		u, err := sys.PrepareUCQFrom(&UCQ{Name: disjuncts[0].Name, Disjuncts: disjuncts})
		if err != nil {
			t.Fatalf("prepare union of %s, …: %v", disjuncts[0], err)
		}
		run, prepared = u, u.Disjuncts()
		options = append(options[:len(options):len(options)], func(c *execConfig) { c.opts.MaxConcurrent = -1 })
	}
	for _, c := range counters {
		c.Reset()
	}
	res, err := run.Execute(context.Background(), options...)
	if err != nil {
		t.Fatalf("execute %s: %v", disjuncts[0], err)
	}
	o := oracle.Outcome{Truncated: res.Truncated, Count: res.TotalAccesses(), Accesses: map[string]bool{}}
	for _, tup := range res.Answers.Tuples() {
		o.Answers = append(o.Answers, oracle.Key(tup.Strings()))
	}
	sort.Strings(o.Answers)
	for name, c := range counters {
		for key := range c.AccessSet() {
			o.Accesses[key] = true
		}
		if res.Stats[name].Accesses > 0 {
			o.Probed = append(o.Probed, name)
		}
	}
	sort.Strings(o.Probed)
	return o, prepared
}

// checkShapeShared is the property: with a and b two queries (or unions) of
// one shape and different constants, b prepared on a system that planned a
// first runs on a's pipeline — the very object — and shows exactly what b
// shows on a system that never saw a — and, under the optimized executors,
// answers what it answers under the naive one. It reports whether b's
// answers differ from a's, i.e. whether the case could tell the constants
// apart at all.
func checkShapeShared(t *testing.T, label string, sch *schema.Schema, db *storage.Database, a, b []*CQ) (discriminating bool) {
	t.Helper()
	var naive oracle.Outcome
	for _, ex := range shapeExecutors {
		warmSys, warmCounters := auditedSystem(t, sch, db)
		first, qa := observe(t, warmSys, warmCounters, a, WithExecutor(ex.e))
		shapes := warmSys.PlanCacheStats().Shapes
		warm, qb := observe(t, warmSys, warmCounters, b, WithExecutor(ex.e))
		for i := range qb {
			if qb[i].pipeline != qa[i].pipeline {
				t.Errorf("%s: disjunct %d of b (%s) was planned anew, not served a's pipeline", label, i, b[i])
			}
		}
		if got := warmSys.PlanCacheStats().Shapes; got != shapes {
			t.Errorf("%s: preparing b grew the plan cache from %d to %d shapes", label, shapes, got)
		}
		coldSys, coldCounters := auditedSystem(t, sch, db)
		cold, _ := observe(t, coldSys, coldCounters, b, WithExecutor(ex.e))
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s under %s: b = %s\n on a's plan:  %+v\n planned anew: %+v", label, ex.name, b[0], warm, cold)
		}
		// The naive executor gets the query itself, the others a plan and a
		// vector: a slot that took another slot's constant shows here.
		if ex.e == ExecutorNaive {
			naive = cold
		} else if !slices.Equal(cold.Answers, naive.Answers) {
			t.Errorf("%s: b = %s answers %q under %s, %q under naive", label, b[0], cold.Answers, ex.name, naive.Answers)
		}
		// a again, after b: nothing of b's stuck to the shared plan.
		if again, _ := observe(t, warmSys, warmCounters, a, WithExecutor(ex.e)); !reflect.DeepEqual(again, first) {
			t.Errorf("%s under %s: a = %s\n before b: %+v\n after b:  %+v", label, ex.name, a[0], first, again)
		}
		discriminating = discriminating || !slices.Equal(warm.Answers, first.Answers)
	}
	return discriminating
}

// TestShapeSharedEqualsFreshlyPlanned holds the plan cache to the one thing
// it must never change: what a query answers and what it costs. These are
// the cases to see it on — a join through a constant, a constant in the
// head, a constant under negation, a constant whose first atom minimization
// drops, and unions; on generated cases TestOracleFacade runs each query on
// the plan of a sibling of its shape.
func TestShapeSharedEqualsFreshlyPlanned(t *testing.T) {
	sch := schema.MustParse(`
		r^io(A, B)
		s^io(A, C)
		u^oo(A, B)
		w^o(B)`)
	db := storage.NewDatabase()
	for name, rows := range map[string][]storage.Row{
		"r": {{"Hello World", "x"}, {"Hello World", "x2"}, {"a-b", "dash"}, {"a-b", "x"}, {"é", "accent"}, {"", "none"}, {"k1", "c1"}, {"k2", "c2"}, {"k2", "x"}},
		"s": {{"Hello World", "sx"}, {"a-b", "sdash"}, {"é", "saccent"}, {"", "snone"}, {"m1", "y1"}, {"m2", "y2"}},
		"u": {{"Hello World", "x"}, {"a-b", "x"}, {"é", "x2"}, {"k1", "dash"}, {"", "accent"}},
		"w": {{"x"}, {"x2"}, {"dash"}, {"accent"}, {"none"}},
	} {
		tab, err := db.Create(name, sch.Relation(name).Arity())
		if err != nil {
			t.Fatal(err)
		}
		tab.InsertAll(rows)
	}
	parse := func(texts ...string) []*CQ {
		var out []*CQ
		for _, text := range texts {
			out = append(out, cq.MustParse(text))
		}
		return out
	}
	for _, c := range []struct {
		label string
		a, b  []*CQ
	}{
		{"a join through the constant",
			parse("q(X, Y) :- r('Hello World', X), s('Hello World', Y)"),
			parse("q(X, Y) :- r('a-b', X), s('a-b', Y)")},
		{"two constants that could be one",
			parse("q(X, Y) :- r('Hello World', X), s('a-b', Y)"),
			parse("q(X, Y) :- r('é', X), s('', Y)")},
		{"a constant in the head",
			parse("q('Hello World', X) :- r('Hello World', X)"),
			parse("q('é', X) :- r('é', X)")},
		{"a constant under negation",
			parse("q(X) :- w(X), not r('Hello World', X)"),
			parse("q(X) :- w(X), not r('a-b', X)")},
		{"a constant only under negation and another in the body",
			parse("q(X) :- u('a-b', X), not r('Hello World', X)"),
			parse("q(X) :- u('Hello World', X), not r('', X)")},
		{"minimization drops the atom the first constant first occurred in",
			parse("q(Y) :- r(k1, X), s(m1, Y), r(k1, c1)"),
			parse("q(Y) :- r(k2, X), s(m2, Y), r(k2, c2)")},
		{"the empty constant",
			parse("q(X) :- r('Hello World', X)"),
			parse("q(X) :- r('', X)")},
		{"a union whose disjuncts share a shape",
			parse("q(X) :- r('Hello World', X)", "q(X) :- r('a-b', X)"),
			parse("q(X) :- r('é', X)", "q(X) :- r('', X)")},
		{"a union of two shapes",
			parse("q(X) :- r('Hello World', X)", "q(X) :- u(A, X), s(A, 'sdash')"),
			parse("q(X) :- r(k1, X)", "q(X) :- u(A, X), s(A, 'saccent')")},
	} {
		if !checkShapeShared(t, c.label, sch, db, c.a, c.b) {
			t.Errorf("%s: a and b answer alike; the case shows nothing", c.label)
		}
	}
}

// TestOneShapeManyGoroutines: sixteen goroutines preparing and executing
// sixteen constants of one shape — racing to plan it — end with one cached
// entry, one pipeline between them, and each its own answers.
func TestOneShapeManyGoroutines(t *testing.T) {
	sch, err := ParseSchema("conf^ioo(P, C, Y)\ncat^oo(P, T)")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch, WithCache(CacheOptions{}))
	const goroutines, rounds = 16, 8
	var rows []Row
	for k := 0; k < goroutines*rounds; k++ {
		rows = append(rows, Row{fmt.Sprintf("p%d", k), fmt.Sprintf("c%d", k), "y2008"})
	}
	if err := sys.BindRows("conf", rows...); err != nil {
		t.Fatal(err)
	}
	var (
		wg     sync.WaitGroup
		start  = make(chan struct{})
		shapes [goroutines]*core.Pipeline
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				k := g*rounds + i
				q, err := sys.Prepare(fmt.Sprintf("q(C) :- conf(p%d, C, Y)", k))
				if err != nil {
					t.Error(err)
					return
				}
				e := shapeExecutors[k%len(shapeExecutors)]
				res, err := q.Execute(context.Background(), WithExecutor(e.e))
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := strings.Join(res.SortedAnswers(), ";"), fmt.Sprintf("c%d", k); got != want {
					t.Errorf("p%d under %s answers [%s], want [%s]", k, e.name, got, want)
				}
				if shapes[g] != nil && shapes[g] != q.pipeline {
					t.Errorf("goroutine %d was served two entries for one shape", g)
				}
				shapes[g] = q.pipeline
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if shapes[g] != shapes[0] {
			t.Errorf("goroutines 0 and %d hold different entries for one shape", g)
		}
	}
	st := sys.PlanCacheStats()
	if st.Shapes != 1 || st.Hits+st.Misses != goroutines*rounds || st.Misses < 1 || st.Misses > goroutines {
		t.Errorf("plan cache = %+v, want one shape from %d prepares, planned by at most the %d that raced", st, goroutines*rounds, goroutines)
	}
}

// TestPlanCacheBounded: the plan cache holds at most maxPlannedShapes
// shapes, dropping the one planned longest ago; a dropped shape is planned
// again, transparently, when it comes back.
func TestPlanCacheBounded(t *testing.T) {
	sch, err := ParseSchema("pub1^io(Paper, Person)\nconf^ooo(Paper, ConfName, Year)")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch)
	if err := sys.BindRows("conf", Row{"p1", "icde", "y2008"}); err != nil {
		t.Fatal(err)
	}
	const extra = 5
	text := func(i int) string { return fmt.Sprintf("q%d(P) :- conf(P, icde, Y)", i) }
	for i := 0; i < maxPlannedShapes+extra; i++ {
		if _, err := sys.Prepare(text(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := PlanCacheStats{Shapes: maxPlannedShapes, Misses: maxPlannedShapes + extra, Evictions: extra}
	if got := sys.PlanCacheStats(); got != want {
		t.Fatalf("plan cache = %+v, want %+v", got, want)
	}
	// The newest and the oldest survivor are hits; the oldest of all is gone.
	for _, i := range []int{maxPlannedShapes + extra - 1, extra} {
		if _, err := sys.Prepare(text(i)); err != nil {
			t.Fatal(err)
		}
	}
	want.Hits = 2
	if got := sys.PlanCacheStats(); got != want {
		t.Fatalf("after two survivors: plan cache = %+v, want %+v", got, want)
	}
	q, err := sys.Prepare(text(0))
	if err != nil {
		t.Fatal(err)
	}
	want.Misses++
	want.Evictions++
	if got := sys.PlanCacheStats(); got != want {
		t.Fatalf("after an evicted shape came back: plan cache = %+v, want %+v", got, want)
	}
	res, err := q.Execute(context.Background())
	if err != nil || strings.Join(res.SortedAnswers(), ";") != "p1" {
		t.Errorf("the rebuilt plan answers %v (%v)", res.SortedAnswers(), err)
	}
}

// TestPrepareErrorsQuoteTheQuery: the planner sees slots, the author of a
// refused query sees the constants they wrote.
func TestPrepareErrorsQuoteTheQuery(t *testing.T) {
	sch, err := ParseSchema("r^io(A, B)\ns^io(C, B)")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch)
	for text, want := range map[string]string{
		"q(Y) :- r('Hello World', Y, extra)":               "r('Hello World', Y, extra)",
		"q(Y) :- r('Hello World', Y), s('Hello World', Y)": `constant "Hello World" used with domains`,
		"q(Y, nowhere) :- r('Hello World', Y)":             `head constant "nowhere"`,
		"q(Y) :- r('Hello World', Y), not s(other, Z)":     "negated atom s(other, Z)",
	} {
		_, err := sys.Prepare(text)
		if err == nil {
			t.Errorf("%s: prepared", text)
			continue
		}
		if !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "$") {
			t.Errorf("%s: error %q, want it to quote %s and no slot", text, err, want)
		}
	}
	if st := sys.PlanCacheStats(); st.Shapes != 0 {
		t.Errorf("refused queries left %d shapes in the plan cache", st.Shapes)
	}
}

// TestExplainShowsThisQuerysConstants: the plan and the d-graph of a query
// served from another query's pipeline name the artificial relations by
// slot and say what each holds — for the query asked about.
func TestExplainShowsThisQuerysConstants(t *testing.T) {
	sch, err := ParseSchema("r^io(A, B)\ns^io(B, C)")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch)
	first, err := sys.Prepare("q(C) :- r('Hello World', B), s(B, C)")
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.Prepare("q(C) :- r('another one', B), s(B, C)")
	if err != nil {
		t.Fatal(err)
	}
	if second.pipeline != first.pipeline {
		t.Fatal("one shape, two entries")
	}
	for _, c := range []struct {
		q          *Query
		mine, them string
	}{{first, "Hello World", "another one"}, {second, "another one", "Hello World"}} {
		for name, text := range map[string]string{
			"plan": c.q.Plan().String(), "d-graph": c.q.DGraphDOT(), "optimized d-graph": c.q.OptimizedDOT(),
		} {
			if !strings.Contains(text, "l_0") || !strings.Contains(text, "'"+c.mine+"'") || strings.Contains(text, c.them) {
				t.Errorf("the %s of the query about %q:\n%s", name, c.mine, text)
			}
		}
		if got := strings.Join(c.q.RelevantRelations(), ","); got != "l_0,r,s" {
			t.Errorf("relevant relations = %s, want l_0,r,s", got)
		}
	}
	// Nothing a query brought is held by what the next one is served from.
	p := first.pipeline
	held := fmt.Sprint(p.Query, p.Pre.Query, p.Pre.Consts, p.Plan.Consts, p.Plan.Program, p.Plan, p.Typing.Consts, p.Graph)
	if strings.Contains(held, "Hello World") || strings.Contains(held, "another one") {
		t.Errorf("the cached pipeline holds a constant:\n%s", held)
	}
}
