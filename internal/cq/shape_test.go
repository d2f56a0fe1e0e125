package cq

import (
	"bytes"
	"strings"
	"testing"
)

// Equal reports syntactic equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// sameAtoms and sameCQ are structural equality: names, order and terms, an
// absent list being an empty one.
func sameAtoms(a, b []Atom) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func sameCQ(a, b *CQ) bool {
	return a.Name == b.Name &&
		Atom{Args: a.Head}.Equal(Atom{Args: b.Head}) &&
		sameAtoms(a.Body, b.Body) && sameAtoms(a.Negated, b.Negated)
}

func shapeKey(q *CQ) string {
	key, _ := AppendShapeKey(nil, q)
	return string(key)
}

// TestShape: slots are numbered by first occurrence over body, negated atoms
// and head; a repeated constant keeps its slot; only constants move.
func TestShape(t *testing.T) {
	cases := []struct {
		text, shape string
		consts      []string
	}{
		{"q(X) :- r(X, Y)", "q(X) :- r(X, Y)", nil},
		{"q(C, Y) :- conf(p7, C, Y)", "q(C, Y) :- conf($0, C, Y)", []string{"p7"}},
		{"q(X) :- r(a, X), s(a, Y)", "q(X) :- r($0, X), s($0, Y)", []string{"a"}},
		{"q(X) :- r(a, X), s(b, Y)", "q(X) :- r($0, X), s($1, Y)", []string{"a", "b"}},
		{"q(b, X) :- r(a, X), s(b, X), not t(c, X), not t(a, X)", "q($1, X) :- r($0, X), s($1, X), not t($2, X), not t($0, X)", []string{"a", "b", "c"}},
		{"q(X) :- r('Hello World', X, '', 'é', '$0')", "q(X) :- r($0, X, $1, $2, $3)", []string{"Hello World", "", "é", "$0"}},
	}
	for _, c := range cases {
		q := MustParse(c.text)
		before := q.String()
		shape, consts := Shape(q)
		if q.String() != before {
			t.Errorf("Shape modified its argument: %s", q)
		}
		if !sameCQ(shape, MustParse(c.shape)) {
			t.Errorf("Shape(%s) = %s, want %s", c.text, shape, c.shape)
		}
		if strings.Join(consts, "\x00") != strings.Join(c.consts, "\x00") || len(consts) != len(c.consts) {
			t.Errorf("Shape(%s) constants = %q, want %q", c.text, consts, c.consts)
		}
		if back := Instantiate(shape, consts); !sameCQ(back, q) {
			t.Errorf("Instantiate(Shape(%s)) = %s", c.text, back)
		}
		key, keyConsts := AppendShapeKey([]byte("kept"), q)
		if !bytes.HasPrefix(key, []byte("kept")) || strings.Join(keyConsts, "\x00") != strings.Join(consts, "\x00") {
			t.Errorf("AppendShapeKey(%s) = %q, %q", c.text, key, keyConsts)
		}
		// A shape is its own shape.
		if shapeKey(shape) != shapeKey(q) {
			t.Errorf("the shape of %s has another key than the query", c.text)
		}
	}
}

// TestShapeKeySeparates: same shape, same key, whatever the constants and
// the spelling; any structural difference, another key.
func TestShapeKeySeparates(t *testing.T) {
	same := [][2]string{
		{"q(C, Y) :- conf(p1, C, Y)", "q(C, Y) :- conf(p2, C, Y)"},
		{"q(C, Y) :- conf(p1, C, Y)", "q( C,Y )<-conf('P 1',C,Y)"},
		{"q(X) :- r(a, X), s(a, Y)", "q(X) :- r(b, X), s(b, Y)"},
		{"q(a) :- r(a, b), not s(b)", "q(x) :- r(x, y), not s(y)"},
	}
	for _, p := range same {
		if shapeKey(MustParse(p[0])) != shapeKey(MustParse(p[1])) {
			t.Errorf("%s and %s have one shape but two keys", p[0], p[1])
		}
	}
	distinct := []string{
		"q(X) :- r(a, X), s(a, Y)",
		"q(X) :- r(a, X), s(b, Y)",
		"q(X) :- r(A, X), s(a, Y)",
		"q(X) :- r(a, X), s(Y, a)",
		"q(X) :- r(a, X), not s(a, Y), t(Y)",
		"q(X) :- r(a, X), s(a, Y), t(Y)",
		"q(X) :- s(a, Y), r(a, X)",
		"p(X) :- r(a, X), s(a, Y)",
		"q(Y) :- r(a, X), s(a, Y)",
		"q(X, a) :- r(a, X), s(a, Y)",
		"q(X) :- r(a, X, s, a, Y)",
		"q(X) :- r(a), X(s, a, Y)",
	}
	seen := make(map[string]string)
	for _, text := range distinct {
		key := shapeKey(MustParse(text))
		if other, dup := seen[key]; dup {
			t.Errorf("%s and %s differ in shape but share a key", other, text)
		}
		seen[key] = text
	}
}

// rawCQ builds a query from a string without the parser: fields separated
// by '|' are the head name and then the atoms, each "pred;term;term…", a
// leading '!' negating the atom and a leading '?' making a term a variable.
// Names therefore hold anything else: parentheses, commas, quotes, '$'.
func rawCQ(s string) *CQ {
	fields := strings.Split(s, "|")
	q := &CQ{Name: fields[0]}
	for _, f := range fields[1:] {
		parts := strings.Split(f, ";")
		neg := strings.HasPrefix(parts[0], "!")
		a := Atom{Pred: strings.TrimPrefix(parts[0], "!")}
		for _, p := range parts[1:] {
			if v, isVar := strings.CutPrefix(p, "?"); isVar {
				a.Args = append(a.Args, V(v))
			} else {
				a.Args = append(a.Args, C(p))
			}
		}
		if neg {
			q.Negated = append(q.Negated, a)
		} else {
			q.Body = append(q.Body, a)
		}
	}
	if len(q.Body) > 0 {
		q.Head = q.Body[0].Args // some head: terms the walk visits last
	}
	return q
}

// checkShapePair holds Shape, Instantiate and AppendShapeKey to their
// contract on two queries: each splits and reassembles exactly, and the two
// share a key exactly when their shapes are structurally equal.
func checkShapePair(t *testing.T, a, b *CQ) {
	t.Helper()
	var shapes [2]*CQ
	var keys [2]string
	for i, q := range []*CQ{a, b} {
		shape, consts := Shape(q)
		if back := Instantiate(shape, consts); !sameCQ(back, q) {
			t.Fatalf("Instantiate(Shape(q)) = %s, want %s", back, q)
		}
		for k, c := range consts {
			for _, earlier := range consts[:k] {
				if c == earlier {
					t.Fatalf("constant %q holds two slots of %s", c, q)
				}
			}
		}
		key, keyConsts := AppendShapeKey(nil, q)
		if strings.Join(keyConsts, "\x00") != strings.Join(consts, "\x00") || len(keyConsts) != len(consts) {
			t.Fatalf("AppendShapeKey and Shape disagree on the constants of %s: %q, %q", q, keyConsts, consts)
		}
		if shapeKey(shape) != string(key) {
			t.Fatalf("the shape of %s has another key than the query", q)
		}
		shapes[i], keys[i] = shape, string(key)
	}
	if sameKey, sameShape := keys[0] == keys[1], sameCQ(shapes[0], shapes[1]); sameKey != sameShape {
		t.Fatalf("%s and %s: equal keys %v, equal shapes %v", a, b, sameKey, sameShape)
	}
}

// TestShapeKeyInjectiveOnBuiltQueries: names the parser would never produce
// cannot make two shapes collide — the key does not lean on its rules.
func TestShapeKeyInjectiveOnBuiltQueries(t *testing.T) {
	raws := []string{
		"q|r;a;?X",
		"q|r;a,?X",       // one constant "a,?X", not two terms
		"q|r(a;?X",       // a predicate with a parenthesis in it
		"q|r;a|?X",       // a second atom named ?X
		"q|r;$0;?X",      // a constant spelled like a slot
		"q|r;$0;$1",      // two of them
		"q|r;$1;$0",      // the same shape as the line above
		"q|r;'a';?X",     // quotes kept
		"q|r;;?X",        // the empty constant
		"q|r;?;?X",       // the empty variable
		"q|r;a|!s;a",     // negated
		"q|r;a|s;a",      // not negated
		"q|r;a;b|!s;b;a", // slots cross the body/negated boundary
		"q|r\x01;\x02",   // bytes the key itself uses as lengths
		"q|r;\x01\x02",
		"|",
		"",
	}
	for _, x := range raws {
		for _, y := range raws {
			checkShapePair(t, rawCQ(x), rawCQ(y))
		}
	}
	if shapeKey(rawCQ("q|r;$0;$1")) != shapeKey(rawCQ("q|r;$1;$0")) {
		t.Error("r($0, $1) and r($1, $0) are one shape")
	}
}

// FuzzShapeKey drives the shape split from both sides: texts through the
// parser, and the same strings as raw names the parser never vetted.
func FuzzShapeKey(f *testing.F) {
	f.Add("q(C, Y) :- conf(p1, C, Y)", "q(C, Y) :- conf('P 1', C, Y)")
	f.Add("q(X) :- r(a, X), s(a, Y)", "q(X) :- r(a, X), s(b, Y)")
	f.Add("q(b, X) :- r(a, X), not t(b, X)", "q(a, X) :- r(a, X), not t(b, X)")
	f.Add("q(X) :- r('$0', X, '')", "q(X) :- r('', X, '$0')")
	f.Add("q|r;a,?X|!s;$1", "q|r;a;?X|!s;$1")
	f.Add("q() :- r(a)", "bad(")
	f.Fuzz(func(t *testing.T, x, y string) {
		checkShapePair(t, rawCQ(x), rawCQ(y))
		a, errA := Parse(x)
		b, errB := Parse(y)
		if errA == nil && errB == nil {
			checkShapePair(t, a, b)
		}
	})
}

const (
	benchPoint = "q(C, Y) :- conf(p123456, C, Y)"
	benchScan  = "q(T, C) :- cat(P, T), conf(P, C, Y)"
	benchQ3    = "q3(R) :- rev_icde(R, S, acc), sub(S, A), pub1(P, R), pub1(P, A), rev(R, icde, y2008), conf(P, icde, Y)"
)

var benchSink *CQ

func benchParse(b *testing.B, text string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = q
	}
}

// BenchmarkParse* is the parse layer on the three query texts of the repo
// benchmark: serve-hot/-cold's point lookup, serve-scan's join, paper q3.
func BenchmarkParsePoint(b *testing.B) { benchParse(b, benchPoint) }
func BenchmarkParseScan(b *testing.B)  { benchParse(b, benchScan) }
func BenchmarkParseQ3(b *testing.B)    { benchParse(b, benchQ3) }

// BenchmarkShapeKey is what a prepare of a known shape pays on top of the
// parse: the key and the constant vector, into a caller's buffer.
func BenchmarkShapeKey(b *testing.B) {
	for name, text := range map[string]string{"point": benchPoint, "q3": benchQ3} {
		q := MustParse(text)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var buf [256]byte
			var consts []string
			for i := 0; i < b.N; i++ {
				_, consts = AppendShapeKey(buf[:0], q)
			}
			if len(consts) == 0 {
				b.Fatal("no constants")
			}
		})
	}
}
