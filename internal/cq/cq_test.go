package cq

import (
	"strings"
	"testing"
)

func TestParseSimple(t *testing.T) {
	q, err := Parse("q(N) :- r1(A, N, Y1), r2(volare, Y2, A)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "q" || q.Arity() != 1 {
		t.Fatalf("head: %s/%d", q.Name, q.Arity())
	}
	if len(q.Body) != 2 {
		t.Fatalf("body len = %d", len(q.Body))
	}
	if got := q.Body[1].Args[0]; got.IsVar || got.Name != "volare" {
		t.Errorf("constant parsed as %+v", got)
	}
	if got := q.Body[0].Args[1]; !got.IsVar || got.Name != "N" {
		t.Errorf("variable parsed as %+v", got)
	}
}

func TestParseArrowVariant(t *testing.T) {
	q, err := Parse("q(X) <- r(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Body) != 1 || q.Body[0].Pred != "r" {
		t.Fatalf("bad parse: %v", q)
	}
}

func TestParseQuotedConstant(t *testing.T) {
	q := MustParse("q(X) :- r(X, 'Hello, world')")
	got := q.Body[0].Args[1]
	if got.IsVar || got.Name != "Hello, world" {
		t.Errorf("quoted constant: %+v", got)
	}
}

func TestParseNegation(t *testing.T) {
	q := MustParse("q(X) :- r(X, Y), not s(Y)")
	if len(q.Body) != 1 || len(q.Negated) != 1 {
		t.Fatalf("body=%d negated=%d", len(q.Body), len(q.Negated))
	}
	if q.Negated[0].Pred != "s" {
		t.Errorf("negated atom %v", q.Negated[0])
	}
	q2 := MustParse("q(X) :- r(X, Y), !s(Y)")
	if len(q2.Negated) != 1 {
		t.Error("! form not parsed")
	}
}

func TestParseNullaryAtom(t *testing.T) {
	q := MustParse("q(X) :- r(X), flag()")
	if len(q.Body) != 2 || len(q.Body[1].Args) != 0 {
		t.Fatalf("nullary atom: %v", q)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"q(X)",                  // no body
		"q(X) :-",               // empty body
		"q(X) :- r(X",           // unterminated atom
		"q(X) :- r(X) trailing", // trailing junk
		"q(X) :- r('oops)",      // unterminated quote
		"q(X) :- not s(X)",      // only negated atoms
		"q(X) : - r(X)",         // broken separator
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): want error", bad)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		"q(N) :- r1(A, N, Y1), r2(volare, Y2, A)",
		"q(X, Y) :- r(X, Y), s(Y, c1), not t(X)",
		"q(X) :- r(X, X)",
	} {
		q := MustParse(src)
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", q.String(), err)
		}
		if q2.String() != q.String() {
			t.Errorf("round trip: %q vs %q", q.String(), q2.String())
		}
	}
}

func TestQuotingInString(t *testing.T) {
	q := &CQ{Name: "q", Head: []Term{V("X")}, Body: []Atom{
		{Pred: "r", Args: []Term{V("X"), C("Upper")}},
	}}
	s := q.String()
	if !strings.Contains(s, "'Upper'") {
		t.Errorf("upper-case constant must be quoted: %s", s)
	}
	q2 := MustParse(s)
	if got := q2.Body[0].Args[1]; got.IsVar || got.Name != "Upper" {
		t.Errorf("quoted round trip: %+v", got)
	}
}

func TestVarsConstantsJoins(t *testing.T) {
	q := MustParse("q(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)")
	if got := strings.Join(q.Vars(), ","); got != "C,P,R,Y" {
		t.Errorf("Vars = %s", got)
	}
	if got := strings.Join(q.JoinVars(), ","); got != "C,P,R,Y" {
		t.Errorf("JoinVars = %s", got)
	}
	if !q.HasJoin() {
		t.Error("HasJoin")
	}
	q2 := MustParse("q(X) :- r(X, a), s(b)")
	if q2.HasJoin() {
		t.Error("q2 has no join")
	}
	q3 := MustParse("q(X) :- r(X, X)")
	if got := strings.Join(q3.JoinVars(), ","); got != "X" {
		t.Errorf("self-join within one atom: JoinVars = %s", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	q := MustParse("q(X) :- r(X, Y), not s(Y)")
	c := q.Clone()
	c.Body[0].Args[0] = C("z")
	c.Negated[0].Args[0] = C("w")
	if !q.Body[0].Args[0].IsVar || !q.Negated[0].Args[0].IsVar {
		t.Error("Clone shares atom slices")
	}
}

func TestParseUCQ(t *testing.T) {
	u, err := ParseUCQ(`
# two ways to find authors
q(X) :- pub1(P, X)
q(X) :- pub2(P, X)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Disjuncts) != 2 || u.Name != "q" || u.Arity() != 1 {
		t.Fatalf("UCQ: %v", u)
	}
	if _, err := ParseUCQ("q(X) :- r(X)\np(X) :- r(X)"); err == nil {
		t.Error("mismatched head names: want error")
	}
	if _, err := ParseUCQ("q(X) :- r(X)\nq(X, Y) :- r(X), s(Y)"); err == nil {
		t.Error("mismatched arities: want error")
	}
	if _, err := ParseUCQ("  \n# nothing\n"); err == nil {
		t.Error("empty UCQ: want error")
	}
}

// TestParseUCQOneDisjunctIsParse: a text of one disjunct, comment and blank
// lines aside, parses as Parse parses the disjunct — a CQ is a union of
// one — and a one-line text, trailing blank lines included, fails with
// Parse's own error on the whole text; an error in a union of several names
// its line.
func TestParseUCQOneDisjunctIsParse(t *testing.T) {
	for _, text := range []string{"# note\nq(X) :- r(X)", "q(X) :- r(X)\n# note", "\n\t\n  q(X) :- r(X)  \r\n\n"} {
		u, err := ParseUCQ(text)
		if err != nil || len(u.Disjuncts) != 1 || u.Disjuncts[0].String() != "q(X) :- r(X)" {
			t.Errorf("ParseUCQ(%q) = %v, %v; want the one disjunct q(X) :- r(X)", text, u, err)
		}
	}
	for _, text := range []string{"garbage(", "garbage(\n", "  q(X) :- r(X) junk\r\n\n", "q(X) :- r('a)"} {
		_, want := Parse(text)
		if _, err := ParseUCQ(text); want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("ParseUCQ(%q) failed with %v, want Parse's %v", text, err, want)
		}
	}
	if _, err := ParseUCQ("q(X) :- r(X)\n\n# note\nq(X) :- s(X"); err == nil || !strings.HasPrefix(err.Error(), "line 4: ") {
		t.Errorf("a union's error is %v, want it to name line 4", err)
	}
}
