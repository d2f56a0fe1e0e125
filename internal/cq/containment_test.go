package cq

import (
	"testing"
	"testing/quick"
)

// Equivalent reports whether the two queries are logically equivalent.
func Equivalent(q1, q2 *CQ) bool { return Contains(q1, q2) && Contains(q2, q1) }

func TestContainmentBasics(t *testing.T) {
	q1 := MustParse("q(X) :- r(X, Y)")
	q2 := MustParse("q(X) :- r(X, Y), s(Y)")
	// q2 has an extra conjunct, so q2 ⊆ q1 but not conversely.
	if !Contains(q1, q2) {
		t.Error("q1 should contain q2")
	}
	if Contains(q2, q1) {
		t.Error("q2 should not contain q1")
	}
	if Equivalent(q1, q2) {
		t.Error("not equivalent")
	}
}

func TestContainmentRenaming(t *testing.T) {
	q1 := MustParse("q(X) :- r(X, Y), r(Y, Z)")
	q2 := MustParse("q(A) :- r(A, B), r(B, C)")
	if !Equivalent(q1, q2) {
		t.Error("alpha-equivalent queries must be equivalent")
	}
}

func TestContainmentConstants(t *testing.T) {
	q1 := MustParse("q(X) :- r(X, Y)")
	q2 := MustParse("q(X) :- r(X, c)")
	// Mapping Y -> c shows q2 ⊆ q1.
	if !Contains(q1, q2) {
		t.Error("q1 should contain the constant-restricted q2")
	}
	if Contains(q2, q1) {
		t.Error("constant can't map to a variable")
	}
	q3 := MustParse("q(X) :- r(X, d)")
	if Contains(q2, q3) || Contains(q3, q2) {
		t.Error("distinct constants are incomparable")
	}
}

func TestContainmentHeadMismatch(t *testing.T) {
	q1 := MustParse("q(X, Y) :- r(X, Y)")
	q2 := MustParse("q(X) :- r(X, X)")
	if Contains(q1, q2) || Contains(q2, q1) {
		t.Error("different arities are incomparable")
	}
}

func TestContainmentClassicCycleIntoSelfLoop(t *testing.T) {
	// The canonical example: a length-2 cycle query is contained in the
	// self-loop query's... precisely: q_loop(X) :- e(X, X) maps into any
	// query only via X. And q2(X) :- e(X, Y), e(Y, X) contains q_loop.
	loop := MustParse("q(X) :- e(X, X)")
	cyc := MustParse("q(X) :- e(X, Y), e(Y, X)")
	if !Contains(cyc, loop) {
		t.Error("cycle query contains the self-loop query")
	}
	if Contains(loop, cyc) {
		t.Error("self-loop does not contain the 2-cycle")
	}
}

func TestMinimizePathIntoEdge(t *testing.T) {
	// Redundant chain: r(X,Y), r(X,Z) minimizes to one atom (Z maps to Y).
	q := MustParse("q(X) :- r(X, Y), r(X, Z)")
	m := Minimize(q)
	if len(m.Body) != 1 {
		t.Errorf("Minimize: %s", m)
	}
	if !Equivalent(q, m) {
		t.Error("minimized query not equivalent")
	}
}

func TestMinimizeKeepsCore(t *testing.T) {
	// Nothing removable: head uses both variables.
	q := MustParse("q(X, Z) :- r(X, Y), r(Y, Z)")
	m := Minimize(q)
	if len(m.Body) != 2 {
		t.Errorf("Minimize removed a needed atom: %s", m)
	}
}

func TestMinimizeRespectsConstants(t *testing.T) {
	q := MustParse("q(X) :- r(X, a), r(X, Y)")
	m := Minimize(q)
	// r(X, Y) maps into r(X, a) via Y -> a, so only the constant atom stays.
	if len(m.Body) != 1 {
		t.Fatalf("Minimize: %s", m)
	}
	if m.Body[0].Args[1].IsVar {
		t.Errorf("kept the wrong atom: %s", m)
	}
}

func TestMinimizeSafeNegation(t *testing.T) {
	// r(X, Y) is redundant wrt r(X, Z) only if dropping it keeps Y bound;
	// Y occurs in the negated atom, so the removal must be rejected.
	q := MustParse("q(X) :- r(X, Y), r(X, Z), not s(Y)")
	m := Minimize(q)
	for _, a := range m.Body {
		for _, tm := range a.Args {
			_ = tm
		}
	}
	// Y must still be bound by some positive atom.
	if !safeForNegation(m) {
		t.Fatalf("minimization broke negation safety: %s", m)
	}
	if len(m.Negated) != 1 {
		t.Errorf("negated atoms must be preserved: %s", m)
	}
}

func TestMinimizeSingleAtomUntouched(t *testing.T) {
	q := MustParse("q(X) :- r(X, X)")
	m := Minimize(q)
	if len(m.Body) != 1 {
		t.Errorf("single-atom query must stay: %s", m)
	}
}

// Property: Minimize is idempotent and always yields an equivalent query.
func TestMinimizeIdempotentProperty(t *testing.T) {
	queries := []*CQ{
		MustParse("q(X) :- r(X, Y), r(Y, Z), r(X, Z)"),
		MustParse("q(X) :- r(X, Y), r(X, Z), s(Z)"),
		MustParse("q(X, Y) :- e(X, Y), e(Y, X), e(X, X)"),
		MustParse("q(X) :- a(X, Y), b(Y, W), a(X, Z), b(Z, W)"),
		MustParse("q(X) :- r(X, c), r(X, Y), s(Y, c)"),
	}
	for _, q := range queries {
		m := Minimize(q)
		if !Equivalent(q, m) {
			t.Errorf("Minimize(%s) = %s not equivalent", q, m)
		}
		m2 := Minimize(m)
		if len(m2.Body) != len(m.Body) {
			t.Errorf("Minimize not idempotent on %s: %s then %s", q, m, m2)
		}
	}
}

// Property: containment is reflexive and transitive on a pool of queries.
func TestContainmentPreorderProperty(t *testing.T) {
	pool := []*CQ{
		MustParse("q(X) :- r(X, Y)"),
		MustParse("q(X) :- r(X, Y), s(Y)"),
		MustParse("q(X) :- r(X, Y), s(Y), t(Y)"),
		MustParse("q(X) :- r(X, c)"),
		MustParse("q(X) :- r(X, X)"),
		MustParse("q(X) :- r(X, Y), r(Y, X)"),
	}
	for _, q := range pool {
		if !Contains(q, q) {
			t.Errorf("containment not reflexive on %s", q)
		}
	}
	f := func(i, j, k uint8) bool {
		a := pool[int(i)%len(pool)]
		b := pool[int(j)%len(pool)]
		c := pool[int(k)%len(pool)]
		if Contains(a, b) && Contains(b, c) && !Contains(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHomomorphismMapping(t *testing.T) {
	q1 := MustParse("q(X) :- r(X, Y)")
	q2 := MustParse("q(A) :- r(A, c), s(A)")
	h := Homomorphism(q1, q2)
	if h == nil {
		t.Fatal("no homomorphism found")
	}
	if h["X"] != V("A") || h["Y"] != C("c") {
		t.Errorf("mapping = %v", h)
	}
}
