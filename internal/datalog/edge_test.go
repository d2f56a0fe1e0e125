package datalog

import (
	"fmt"
	"slices"
	"testing"

	"toorjah/internal/sym"
)

// TestEvalConstantInHead: rules may emit constants in head positions.
func TestEvalConstantInHead(t *testing.T) {
	p := program(t, "q(X, tag) :- r(X)")
	edb := DB{}
	edb.Get("r", 1).Insert(T("a"))
	idb, err := Eval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	if !idb["q"].Contains(T("a", "tag")) {
		t.Errorf("q = %v", idb["q"].Tuples())
	}
}

// TestEvalRepeatedHeadVariable: q(X, X) duplicates the binding.
func TestEvalRepeatedHeadVariable(t *testing.T) {
	p := program(t, "q(X, X) :- r(X)")
	edb := DB{}
	edb.Get("r", 1).Insert(T("a"))
	idb, err := Eval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	if !idb["q"].Contains(T("a", "a")) {
		t.Errorf("q = %v", idb["q"].Tuples())
	}
}

// TestEvalDeepRecursionIterative: a 3000-element chain closes without
// blowing the stack (the engine iterates, joins are shallow).
func TestEvalDeepRecursionIterative(t *testing.T) {
	p := program(t,
		"reach(Y) :- start(X), e(X, Y)",
		"reach(Y) :- reach(X), e(X, Y)",
	)
	edb := DB{}
	edb.Get("start", 1).Insert(T("n0"))
	const n = 3000
	for i := 0; i < n; i++ {
		edb.Get("e", 2).Insert(T(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)))
	}
	idb, err := Eval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	if got := idb["reach"].Len(); got != n {
		t.Errorf("reach = %d, want %d", got, n)
	}
}

// TestEvalMutualRecursion: even/odd over a successor chain.
func TestEvalMutualRecursion(t *testing.T) {
	p := program(t,
		"even(X) :- zero(X)",
		"odd(Y) :- even(X), succ(X, Y)",
		"even(Y) :- odd(X), succ(X, Y)",
	)
	edb := DB{}
	edb.Get("zero", 1).Insert(T("0"))
	for i := 0; i < 10; i++ {
		edb.Get("succ", 2).Insert(T(fmt.Sprint(i), fmt.Sprint(i+1)))
	}
	idb, err := Eval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	if !idb["even"].Contains(T("10")) || idb["even"].Contains(T("9")) {
		t.Errorf("even = %v", idb["even"].Tuples())
	}
	if !idb["odd"].Contains(T("9")) || idb["odd"].Contains(T("10")) {
		t.Errorf("odd = %v", idb["odd"].Tuples())
	}
}

// TestEvalEmptyEDBRelations: rules over empty relations derive nothing and
// do not error as long as the relations exist.
func TestEvalEmptyEDBRelations(t *testing.T) {
	p := program(t, "q(X) :- r(X, Y), s(Y)")
	edb := DB{}
	edb.Get("r", 2)
	edb.Get("s", 1)
	idb, err := Eval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	if idb["q"].Len() != 0 {
		t.Errorf("q = %v", idb["q"].Tuples())
	}
}

// TestEvalNegationOverIDBAndEDB mixes both in one negated stratum.
func TestEvalNegationOverIDBAndEDB(t *testing.T) {
	p := program(t,
		"good(X) :- all(X), not bad(X)",
		"bad(X) :- flagged(X)",
		"bad(X) :- all(X), not checked(X)",
	)
	edb := DB{}
	for _, v := range []string{"a", "b", "c"} {
		edb.Get("all", 1).Insert(T(v))
	}
	edb.Get("flagged", 1).Insert(T("a"))
	edb.Get("checked", 1).Insert(T("a"))
	edb.Get("checked", 1).Insert(T("b"))
	idb, err := Eval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	// bad = {a (flagged), c (unchecked)}; good = {b}.
	if got := rows(idb["good"]); fmt.Sprint(got) != "[b]" {
		t.Errorf("good = %v", got)
	}
}

// derive runs a rule compiled for deltaPos and returns the head tuples in
// derivation order.
func derive(t testing.TB, r *Rule, db DB, delta []Tuple, deltaPos int) []Tuple {
	t.Helper()
	c, err := Compile(r, deltaPos)
	if err != nil {
		t.Fatal(err)
	}
	var (
		m   Machine
		out []Tuple
	)
	if err := c.Run(&m, db, delta, func(head Tuple) { out = append(out, slices.Clone(head)) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEvalRuleWithDeltaMatchesFull: incremental evaluation over a delta plus
// previous full state covers exactly the new derivations. (Named after the
// interpreter's entry point it was written against; it runs the compiled
// join now.)
func TestEvalRuleWithDeltaMatchesFull(t *testing.T) {
	r := rule(t, "q(X, Z) :- a(X, Y), b(Y, Z)")
	db := DB{}
	db.Get("a", 2).Insert(T("x1", "y1"))
	db.Get("b", 2).Insert(T("y1", "z1"))
	if full := derive(t, r, db, nil, -1); len(full) != 1 {
		t.Fatalf("full = %v", full)
	}
	// New b tuple arrives: the delta join must derive only the new pair.
	db.Get("b", 2).Insert(T("y1", "z2"))
	inc := derive(t, r, db, []Tuple{T("y1", "z2")}, 1)
	if len(inc) != 1 || inc[0][1] != sym.Intern("z2") {
		t.Errorf("incremental = %v", inc)
	}
}

func TestEvalQueryHeadConstantsFilter(t *testing.T) {
	db := DB{}
	db.Get("r", 2).Insert(T("a", "x"))
	idb, err := Eval(program(t, "q(k, X) :- r(X, Y)"), db)
	if err != nil {
		t.Fatal(err)
	}
	ans := idb["q"]
	if !ans.Contains(T("k", "a")) {
		t.Errorf("answers = %v", ans.Tuples())
	}
}
