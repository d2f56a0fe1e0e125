package datalog

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"toorjah/internal/cq"
	"toorjah/internal/sym"
)

// bruteForce is the reference the compiled join is held to: every
// combination of one candidate tuple per body atom — the delta at deltaPos,
// the full relation elsewhere — unified term by term under a map of
// bindings, then the negated atoms, then the head. It returns one rendered
// head per satisfying combination, as a run emits them, in no particular
// order.
func bruteForce(r *Rule, db DB, delta []Tuple, deltaPos int) []string {
	var out []string
	ground := func(a cq.Atom, bind map[string]sym.ID) Tuple {
		t := make(Tuple, len(a.Args))
		for i, term := range a.Args {
			if term.IsVar {
				t[i] = bind[term.Name]
			} else {
				t[i] = sym.Intern(term.Name)
			}
		}
		return t
	}
	var choose func(i int, bind map[string]sym.ID)
	choose = func(i int, bind map[string]sym.ID) {
		if i == len(r.Body) {
			for _, a := range r.Negated {
				if rel := db[a.Pred]; rel != nil && slices.ContainsFunc(rel.Tuples(), func(t Tuple) bool { return slices.Equal(t, ground(a, bind)) }) {
					return
				}
			}
			out = append(out, fmt.Sprint(ground(r.Head, bind)))
			return
		}
		candidates := delta
		if i != deltaPos {
			candidates = db[r.Body[i].Pred].Tuples()
		}
	candidates:
		for _, t := range candidates {
			next := make(map[string]sym.ID, len(bind)+len(t))
			for name, v := range bind {
				next[name] = v
			}
			for p, term := range r.Body[i].Args {
				want, known := next[term.Name]
				if !term.IsVar {
					want, known = sym.Intern(term.Name), true
				}
				if known && want != t[p] {
					continue candidates
				}
				if term.IsVar {
					next[term.Name] = t[p]
				}
			}
			choose(i+1, next)
		}
	}
	choose(0, map[string]sym.ID{})
	return out
}

// randomJoinCase draws a safe rule and a database over four predicates of
// random arity 0–4 and a four-value domain: 1–4 body atoms, 0–2 negated
// ones (one over a relation the database may lack), a head of arity 0–4,
// terms drawn from five variables and the domain's values, so variables
// repeat within atoms and in the head and constants land everywhere.
func randomJoinCase(rng *rand.Rand) (*Rule, DB) {
	values := []string{"k0", "k1", "k2", "k3"}
	arity := make([]int, 4)
	db := DB{}
	randomTuple := func(n int) Tuple {
		t := make([]string, n)
		for i := range t {
			t[i] = values[rng.Intn(len(values))]
		}
		return T(t...)
	}
	for p := range arity {
		arity[p] = rng.Intn(5)
		rel := db.Get(fmt.Sprintf("p%d", p), arity[p])
		for n := rng.Intn(8); n > 0; n-- {
			rel.Insert(randomTuple(arity[p]))
		}
	}
	var bodyVars []cq.Term
	// term draws a variable three times in four, else a constant.
	term := func(vars func() cq.Term) cq.Term {
		if rng.Intn(4) > 0 {
			return vars()
		}
		return cq.C(values[rng.Intn(len(values))])
	}
	atom := func(p int, vars func() cq.Term) cq.Atom {
		a := cq.Atom{Pred: fmt.Sprintf("p%d", p), Args: make([]cq.Term, arity[p])}
		for i := range a.Args {
			a.Args[i] = term(vars)
		}
		return a
	}
	r := &Rule{}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		r.Body = append(r.Body, atom(rng.Intn(len(arity)), func() cq.Term {
			v := cq.V(fmt.Sprintf("X%d", rng.Intn(5)))
			bodyVars = append(bodyVars, v)
			return v
		}))
	}
	// Head and negated variables come from the positive body (safety); with
	// none there, they are constants.
	safe := func() cq.Term {
		if len(bodyVars) == 0 {
			return cq.C(values[rng.Intn(len(values))])
		}
		return bodyVars[rng.Intn(len(bodyVars))]
	}
	for n := rng.Intn(3); n > 0; n-- {
		a := atom(rng.Intn(len(arity)), safe)
		if rng.Intn(6) == 0 {
			a.Pred = "absent" // a negated atom over no relation holds
		}
		r.Negated = append(r.Negated, a)
	}
	r.Head = cq.Atom{Pred: "q", Args: make([]cq.Term, rng.Intn(5))}
	for i := range r.Head.Args {
		r.Head.Args[i] = term(safe)
	}
	return r, db
}

// TestCompiledJoinMatchesBruteForce: over random rules and databases, at
// every delta position and over full relations, a compiled run derives
// exactly the heads the nested-loop reference derives — one per satisfying
// combination — and Exists agrees with whether there are any.
func TestCompiledJoinMatchesBruteForce(t *testing.T) {
	cases := 3000
	if testing.Short() {
		cases = 500
	}
	rng := rand.New(rand.NewSource(19))
	var m Machine
	derivations := 0
	for n := 0; n < cases; n++ {
		r, db := randomJoinCase(rng)
		for deltaPos := -1; deltaPos < len(r.Body); deltaPos++ {
			var delta []Tuple
			if deltaPos >= 0 {
				// Tuples the relation holds, some twice, and some it does not.
				rel := db[r.Body[deltaPos].Pred]
				for i := rng.Intn(5); i > 0; i-- {
					if rel.Len() > 0 && rng.Intn(3) > 0 {
						delta = append(delta, rel.Tuples()[rng.Intn(rel.Len())])
					} else {
						d := make(Tuple, rel.Arity)
						for j := range d {
							d[j] = sym.Intern(fmt.Sprintf("k%d", rng.Intn(4)))
						}
						delta = append(delta, d)
					}
				}
			}
			c, err := Compile(r, deltaPos)
			if err != nil {
				t.Fatalf("%s at %d: %v", r, deltaPos, err)
			}
			var got []string
			if err := c.Run(&m, db, delta, func(head Tuple) { got = append(got, fmt.Sprint(head)) }); err != nil {
				t.Fatalf("%s at %d: %v", r, deltaPos, err)
			}
			want := bruteForce(r, db, delta, deltaPos)
			derivations += len(want)
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s at %d, delta %v:\n got %v\nwant %v", r, deltaPos, delta, got, want)
			}
			exists, err := c.Exists(&m, db, delta)
			if err != nil || exists != (len(want) > 0) {
				t.Fatalf("%s at %d: Exists = %v, %v with %d derivations", r, deltaPos, exists, err, len(want))
			}
		}
	}
	if derivations < cases {
		t.Errorf("%d cases made %d derivations: the generator exercises too little", cases, derivations)
	}
}

// TestCompiledJoinOrder pins the order of derivation — delta atom first,
// then greedily the atom with the most constants and bound variables, ties
// to the leftmost; candidates in insertion order. An executor emits answers
// in this order, so it decides which of them an answer limit keeps.
func TestCompiledJoinOrder(t *testing.T) {
	db := DB{}
	for _, row := range [][]string{{"x1", "y2"}, {"x2", "y1"}, {"x3", "y2"}, {"x4", "y3"}} {
		db.Get("a", len(row)).Insert(T(row...))
	}
	for _, row := range [][]string{{"y2", "z1"}, {"y1", "z2"}, {"y2", "z3"}, {"y1", "z4"}, {"k", "y1"}, {"k", "y2"}} {
		db.Get("b", len(row)).Insert(T(row...))
	}
	for _, c := range []struct {
		rule     string
		deltaPos int
		delta    []Tuple
		want     string
	}{
		// Nothing to choose by: body order, a's tuples outermost.
		{"q(X, Z) :- a(X, Y), b(Y, Z)", -1, nil, "x1/z1 x1/z3 x2/z2 x2/z4 x3/z1 x3/z3"},
		// The delta leads, in the order it was handed over.
		{"q(X, Z) :- a(X, Y), b(Y, Z)", 1, []Tuple{T("y1", "z9"), T("y2", "z8")}, "x2/z9 x1/z8 x3/z8"},
		{"q(X, Z) :- a(X, Y), b(Y, Z)", 0, []Tuple{T("x9", "y1"), T("x8", "y3")}, "x9/z2 x9/z4"},
		// A constant makes b the better start: its bucket's order leads.
		{"q(X, Y) :- a(X, Y), b(k, Y)", -1, nil, "x2/y1 x1/y2 x3/y2"},
		// A variable repeated in the head and a constant there.
		{"q(Y, c, Y) :- b(k, Y)", -1, nil, "y1/c/y1 y2/c/y2"},
	} {
		var got []string
		for _, head := range derive(t, rule(t, c.rule), db, c.delta, c.deltaPos) {
			got = append(got, strings.Join(head.Strings(), "/"))
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("%s at %d derives %v, want %s", c.rule, c.deltaPos, got, c.want)
		}
	}
}

// TestCompileRejectsUnsafeRule: a head or negated variable no positive atom
// binds has no register to be read from, and a delta position needs an
// atom. The interpreter this replaces never checked and derived tuples
// holding the reserved ID 0.
func TestCompileRejectsUnsafeRule(t *testing.T) {
	unsafeHead := &Rule{
		Head: cq.NewAtom("q", cq.V("X"), cq.V("Y")),
		Body: []cq.Atom{cq.NewAtom("r", cq.V("X"))},
	}
	unsafeNegation := &Rule{
		Head:    cq.NewAtom("q", cq.V("X")),
		Body:    []cq.Atom{cq.NewAtom("r", cq.V("X"))},
		Negated: []cq.Atom{cq.NewAtom("s", cq.V("X"), cq.V("Y"))},
	}
	for _, r := range []*Rule{unsafeHead, unsafeNegation} {
		for deltaPos := -1; deltaPos < len(r.Body); deltaPos++ {
			if c, err := Compile(r, deltaPos); err == nil {
				t.Errorf("Compile(%s, %d) = %v, want an error", r, deltaPos, c)
			}
		}
	}
	safe := rule(t, "q(X) :- r(X), not s(X)")
	for _, deltaPos := range []int{-2, 1} {
		if _, err := Compile(safe, deltaPos); err == nil {
			t.Errorf("Compile(%s, %d): want an error, the rule has one body atom", safe, deltaPos)
		}
	}
	if _, err := Compile(safe, 0); err != nil {
		t.Errorf("Compile(%s, 0): %v", safe, err)
	}
}

// TestRunUnknownRelation: a positive atom over a relation the database
// lacks is an error, found before the join starts.
func TestRunUnknownRelation(t *testing.T) {
	c, err := Compile(rule(t, "q(X) :- r(X), nosuch(X)"), -1)
	if err != nil {
		t.Fatal(err)
	}
	db := DB{}
	db.Get("r", 1)
	var m Machine
	if err := c.Run(&m, db, nil, func(Tuple) {}); err == nil {
		t.Error("Run over a database without nosuch: want an error")
	}
}

// TestRunOverEmptyRelation: a positive atom over an empty relation ends a run
// before its join starts — Run derives nothing, Exists is false, over full
// relations or a delta elsewhere, and no relation of the rule is asked for
// an index — yet a relation the database lacks is an error wherever the rule
// names it.
func TestRunOverEmptyRelation(t *testing.T) {
	db := DB{}
	for _, v := range []string{"k1", "k2"} {
		db.Get("r", 2).Insert(T(v, v))
		db.Get("s", 1).Insert(T(v))
	}
	db.Get("e", 1)
	r := rule(t, "q(X) :- r(X, Y), e(Y), s(X)")
	var m Machine
	for _, deltaPos := range []int{-1, 0, 2} {
		c, err := Compile(r, deltaPos)
		if err != nil {
			t.Fatal(err)
		}
		delta := []Tuple{T("k1", "k1")}
		if deltaPos == 2 {
			delta = []Tuple{T("k1")}
		}
		derived := 0
		if err := c.Run(&m, db, delta, func(Tuple) { derived++ }); err != nil || derived > 0 {
			t.Errorf("Run at %d over an empty e: %d derived, %v", deltaPos, derived, err)
		}
		if ok, err := c.Exists(&m, db, delta); ok || err != nil {
			t.Errorf("Exists at %d over an empty e: %v, %v", deltaPos, ok, err)
		}
	}
	for name, rel := range db {
		if len(rel.indexes) > 0 {
			t.Errorf("%s was asked for %d indexes by runs that could derive nothing", name, len(rel.indexes))
		}
	}
	c, err := Compile(rule(t, "q(X) :- r(X, Y), e(Y), nosuch(X)"), -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(&m, db, nil, func(Tuple) {}); err == nil {
		t.Error("Run naming nosuch after an empty e: want an error")
	}
	if _, err := c.Exists(&m, db, nil); err == nil {
		t.Error("Exists naming nosuch after an empty e: want an error")
	}
}

// TestRunAllocatesNothing: a run on a warm machine — registers, buffer and
// relation list sized, indexes built — makes no allocation, whatever it
// derives.
func TestRunAllocatesNothing(t *testing.T) {
	c, err := Compile(rule(t, "q(V, W) :- a(K, G, V), c(K, G2, W), not a(W, G, V)"), 1)
	if err != nil {
		t.Fatal(err)
	}
	db := DB{}
	for _, row := range benchTuples(256, 16) {
		db.Get("a", len(row)).Insert(row)
		db.Get("c", len(row)).Insert(row)
	}
	var m Machine
	derived := 0
	run := func() {
		if err := c.Run(&m, db, db["c"].Tuples()[:64], func(Tuple) { derived++ }); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if derived != 64 {
		t.Fatalf("derived %d heads, want 64", derived)
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("a warm run makes %.0f allocations, want none", allocs)
	}
}
