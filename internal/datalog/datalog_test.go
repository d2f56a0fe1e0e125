package datalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"toorjah/internal/cq"
	"toorjah/internal/sym"
)

func rule(t testing.TB, src string) *Rule {
	t.Helper()
	q, err := cq.Parse(src)
	if err != nil {
		t.Fatalf("parse rule %q: %v", src, err)
	}
	return RuleOf(q)
}

func program(t *testing.T, srcs ...string) *Program {
	t.Helper()
	p := &Program{}
	for _, s := range srcs {
		p.Add(rule(t, s))
	}
	return p
}

func rows(r *Relation) []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, r.Len())
	for _, t := range r.Tuples() {
		out = append(out, strings.Join(t.Strings(), "/"))
	}
	sort.Strings(out)
	return out
}

func TestEvalTransitiveClosure(t *testing.T) {
	p := program(t,
		"tc(X, Y) :- e(X, Y)",
		"tc(X, Z) :- tc(X, Y), e(Y, Z)",
	)
	edb := DB{}
	edb.Get("e", 2).Insert(T("a", "b"))
	edb.Get("e", 2).Insert(T("b", "c"))
	edb.Get("e", 2).Insert(T("c", "d"))
	idb, err := Eval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	got := rows(idb["tc"])
	want := []string{"a/b", "a/c", "a/d", "b/c", "b/d", "c/d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("tc = %v, want %v", got, want)
	}
}

func TestEvalCyclicClosure(t *testing.T) {
	p := program(t,
		"tc(X, Y) :- e(X, Y)",
		"tc(X, Z) :- tc(X, Y), tc(Y, Z)",
	)
	edb := DB{}
	edb.Get("e", 2).Insert(T("a", "b"))
	edb.Get("e", 2).Insert(T("b", "a"))
	idb, err := Eval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	got := rows(idb["tc"])
	want := []string{"a/a", "a/b", "b/a", "b/b"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("tc = %v, want %v", got, want)
	}
}

func TestEvalFactsAndConstants(t *testing.T) {
	p := program(t, "q(X) :- r(a, X)")
	p.AddFact("r", "a", "one")
	p.AddFact("r", "b", "two")
	idb, err := Eval(p, DB{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(idb["q"]); fmt.Sprint(got) != "[one]" {
		t.Errorf("q = %v", got)
	}
	// The fact relation is IDB here (defined by facts).
	if got := rows(idb["r"]); len(got) != 2 {
		t.Errorf("r = %v", got)
	}
}

func TestEvalNegationStratified(t *testing.T) {
	p := program(t,
		"reach(X) :- start(X)",
		"reach(Y) :- reach(X), e(X, Y)",
		"unreach(X) :- node(X), not reach(X)",
	)
	edb := DB{}
	edb.Get("start", 1).Insert(T("a"))
	edb.Get("e", 2).Insert(T("a", "b"))
	for _, n := range []string{"a", "b", "c"} {
		edb.Get("node", 1).Insert(T(n))
	}
	idb, err := Eval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(idb["unreach"]); fmt.Sprint(got) != "[c]" {
		t.Errorf("unreach = %v", got)
	}
}

func TestStratifyRejectsNegativeCycle(t *testing.T) {
	p := program(t,
		"p(X) :- r(X), not q(X)",
		"q(X) :- r(X), not p(X)",
	)
	if _, err := p.Stratify(); err == nil {
		t.Error("want stratification error")
	}
	if _, err := Eval(p, DB{}); err == nil {
		t.Error("Eval must reject unstratifiable programs")
	}
}

func TestStratifyLevels(t *testing.T) {
	p := program(t,
		"a(X) :- e(X)",
		"b(X) :- a(X)",
		"c(X) :- b(X), not a(X)",
	)
	strata, err := p.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	level := make(map[string]int)
	for i, s := range strata {
		for _, pred := range s {
			level[pred] = i
		}
	}
	if !(level["a"] <= level["b"] && level["a"] < level["c"]) {
		t.Errorf("strata levels: %v", level)
	}
}

func TestRuleValidateUnsafe(t *testing.T) {
	r := &Rule{
		Head: cq.NewAtom("q", cq.V("X"), cq.V("Y")),
		Body: []cq.Atom{cq.NewAtom("r", cq.V("X"))},
	}
	if err := r.Validate(); err == nil {
		t.Error("unsafe head variable: want error")
	}
	r2 := rule(t, "q(X) :- r(X), not s(X, Y)")
	_ = r2
}

func TestProgramValidateArity(t *testing.T) {
	p := program(t, "q(X) :- r(X, Y)", "p(X) :- r(X)")
	if err := p.Validate(); err == nil {
		t.Error("inconsistent arity: want error")
	}
}

func TestRelationLookupIndex(t *testing.T) {
	r := NewRelation("r", 3)
	r.Insert(T("a", "1", "x"))
	r.Insert(T("a", "2", "y"))
	r.Insert(T("b", "1", "z"))
	got := r.Lookup([]int{0}, T("a"))
	if len(got) != 2 {
		t.Errorf("Lookup(0=a) = %v", got)
	}
	got = r.Lookup([]int{0, 1}, T("a", "2"))
	if len(got) != 1 || got[0][2] != sym.Intern("y") {
		t.Errorf("Lookup(0=a,1=2) = %v", got)
	}
	// Index must see later inserts.
	r.Insert(T("a", "3", "w"))
	got = r.Lookup([]int{0}, T("a"))
	if len(got) != 3 {
		t.Errorf("after insert: Lookup(0=a) = %v", got)
	}
	// Duplicate insert is a no-op.
	if r.Insert(T("a", "3", "w")) {
		t.Error("duplicate insert returned true")
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d", r.Len())
	}
}

// TestTupleKeyNoCollision: membership tells apart tuples that a key built
// by concatenation — of the strings, or of the IDs' digits or bytes — would
// confuse, whichever of them arrived first.
func TestTupleKeyNoCollision(t *testing.T) {
	for _, pair := range [][2]Tuple{
		{T("ab", "c"), T("a", "bc")},
		{{1, 2}, {2, 1}},
		{{1, 23}, {12, 3}},
		{{0x0100, 0x01}, {0x01, 0x0001}},
		{{1, 2, 3}, {3, 2, 1}},
		{{7, 7, 8}, {7, 8, 8}},
	} {
		for _, first := range []int{0, 1} {
			r := NewRelation("r", len(pair[0]))
			r.Insert(pair[first])
			if r.Contains(pair[1-first]) {
				t.Errorf("a relation holding %v claims to hold %v", pair[first], pair[1-first])
			}
			if !r.Insert(pair[1-first]) || r.Len() != 2 {
				t.Errorf("a relation holding %v took %v for a duplicate", pair[first], pair[1-first])
			}
			if got := r.Lookup([]int{0, 1}, pair[first][:2]); len(got) != 1 || !slices.Equal(got[0], pair[first]) {
				t.Errorf("Lookup of %v on its first two positions = %v", pair[first], got)
			}
		}
	}
}

func TestEvalQueryJoin(t *testing.T) {
	db := DB{}
	db.Get("pub1", 2).Insert(T("p1", "alice"))
	db.Get("pub1", 2).Insert(T("p2", "bob"))
	db.Get("conf", 3).Insert(T("p1", "icde", "2008"))
	db.Get("rev", 3).Insert(T("alice", "icde", "2008"))
	idb, err := Eval(program(t, "q(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)"), db)
	if err != nil {
		t.Fatal(err)
	}
	ans := idb["q"]
	if got := rows(ans); fmt.Sprint(got) != "[alice]" {
		t.Errorf("answers = %v", got)
	}
}

func TestEvalQueryWithNegation(t *testing.T) {
	db := DB{}
	db.Get("r", 1).Insert(T("a"))
	db.Get("r", 1).Insert(T("b"))
	db.Get("s", 1).Insert(T("b"))
	idb, err := Eval(program(t, "q(X) :- r(X), not s(X)"), db)
	if err != nil {
		t.Fatal(err)
	}
	ans := idb["q"]
	if got := rows(ans); fmt.Sprint(got) != "[a]" {
		t.Errorf("answers = %v", got)
	}
}

func TestEvalUnknownRelation(t *testing.T) {
	p := program(t, "q(X) :- nosuch(X)")
	if _, err := Eval(p, DB{}); err == nil {
		t.Error("unknown EDB relation: want error")
	}
}

func TestEvalSelfJoinWithinAtom(t *testing.T) {
	db := DB{}
	db.Get("e", 2).Insert(T("a", "a"))
	db.Get("e", 2).Insert(T("a", "b"))
	idb, err := Eval(program(t, "q(X) :- e(X, X)"), db)
	if err != nil {
		t.Fatal(err)
	}
	ans := idb["q"]
	if got := rows(ans); fmt.Sprint(got) != "[a]" {
		t.Errorf("answers = %v", got)
	}
}

// Property: semi-naive evaluation of transitive closure agrees with a
// hand-rolled Floyd-Warshall-style reachability on random small graphs.
func TestSemiNaiveAgreesWithReachabilityProperty(t *testing.T) {
	f := func(edges []uint16) bool {
		const n = 6
		adj := make([][]bool, n)
		reach := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
			reach[i] = make([]bool, n)
		}
		edb := DB{}
		edb.Get("e", 2)
		for _, e := range edges {
			u := int(e>>8) % n
			v := int(e&0xff) % n
			adj[u][v] = true
			reach[u][v] = true
			edb.Get("e", 2).Insert(T(fmt.Sprint(u), fmt.Sprint(v)))
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		p := &Program{}
		p.Add(&Rule{Head: cq.NewAtom("tc", cq.V("X"), cq.V("Y")),
			Body: []cq.Atom{cq.NewAtom("e", cq.V("X"), cq.V("Y"))}})
		p.Add(&Rule{Head: cq.NewAtom("tc", cq.V("X"), cq.V("Z")),
			Body: []cq.Atom{cq.NewAtom("tc", cq.V("X"), cq.V("Y")), cq.NewAtom("e", cq.V("Y"), cq.V("Z"))}})
		idb, err := Eval(p, edb)
		if err != nil {
			return false
		}
		tc := idb["tc"]
		count := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if reach[i][j] {
					count++
					if !tc.Contains(T(fmt.Sprint(i), fmt.Sprint(j))) {
						return false
					}
				}
			}
		}
		return tc.Len() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRuleStringFormats(t *testing.T) {
	r := rule(t, "q(X) :- r(X, Y), not s(Y)")
	if got := r.String(); got != "q(X) :- r(X, Y), not s(Y)" {
		t.Errorf("String = %q", got)
	}
	f := &Rule{Head: cq.NewAtom("r", cq.C("a"))}
	if got := f.String(); got != "r(a)." {
		t.Errorf("fact String = %q", got)
	}
}
