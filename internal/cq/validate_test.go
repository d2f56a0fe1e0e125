package cq

import (
	"testing"

	"toorjah/internal/schema"
)

func musicSchema() *schema.Schema {
	// Paper Example 1: artists, songs, albums.
	return schema.MustParse(`
r1^ioo(Artist, Nation, YOB)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`)
}

func TestValidateExample1(t *testing.T) {
	s := musicSchema()
	q := MustParse("q(N) :- r1(A, N, Y1), r2(volare, Y2, A)")
	ty, err := Validate(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if ty.VarDomain["A"] != "Artist" || ty.VarDomain["N"] != "Nation" {
		t.Errorf("VarDomain = %v", ty.VarDomain)
	}
	if ty.ConstDomain["volare"] != "Title" {
		t.Errorf("ConstDomain = %v", ty.ConstDomain)
	}
	// YOB and Year are distinct abstract domains here, so Y1 and Y2 are
	// separate variables; using one variable across both must fail.
	bad := MustParse("q(N) :- r1(A, N, Y), r2(volare, Y, A)")
	if _, err := Validate(bad, s); err == nil {
		t.Error("cross-domain join: want error")
	}
}

func TestValidateSharedYearDomain(t *testing.T) {
	// The paper notes YOB and Year "represent values of the same kind";
	// modelled by giving both positions the same abstract domain.
	s := schema.MustParse(`
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
`)
	q := MustParse("q(N) :- r1(A, N, Y), r2(volare, Y, A)")
	if _, err := Validate(q, s); err != nil {
		t.Errorf("same-domain join should validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	s := musicSchema()
	cases := []string{
		"q(N) :- nosuch(N)",                  // unknown relation
		"q(N) :- r1(A, N)",                   // wrong arity
		"q(Z) :- r1(A, N, Y)",                // head var not in body
		"q(N) :- r1(A, N, Y), not r3(B, AL)", // unsafe negation
		"q(N) :- r1(volare, N, Y)",           // constant volare in both Artist...
	}
	for _, src := range cases[:4] {
		q := MustParse(src)
		if _, err := Validate(q, s); err == nil {
			t.Errorf("Validate(%q): want error", src)
		}
	}
	// Constant used in two domains.
	q := MustParse("q(N) :- r1(A, N, Y), r2(A2, Y2, A), r1(volare, N2, Y3), r2(volare, Y4, A3)")
	if _, err := Validate(q, s); err == nil {
		t.Error("constant in two domains: want error")
	}
}

func TestValidateHeadConstant(t *testing.T) {
	s := musicSchema()
	q := MustParse("q(italy, A) :- r1(A, italy, Y)")
	ty, err := Validate(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if ty.ConstDomain["italy"] != "Nation" {
		t.Errorf("ConstDomain = %v", ty.ConstDomain)
	}
	// A head constant that never occurs in the body has no domain.
	bad := MustParse("q(mars, A) :- r1(A, N, Y)")
	if _, err := Validate(bad, s); err == nil {
		t.Error("head constant without body occurrence: want error")
	}
}

func TestValidateSafeNegation(t *testing.T) {
	s := musicSchema()
	q := MustParse("q(A) :- r3(A, AL), not r1(A, N, Y)")
	if _, err := Validate(q, s); err == nil {
		t.Error("negated atom introducing N, Y: want error (vars unbound)")
	}
	ok := MustParse("q(A) :- r3(A, AL), r1(A, N, Y), not r2(T, Y2, A)")
	if _, err := Validate(ok, s); err == nil {
		t.Error("negated atom with fresh T, Y2: want error")
	}
	ok2 := MustParse("q(A) :- r3(A, AL), r3(A, AL2), not r3(A, AL2)")
	if _, err := Validate(ok2, s); err != nil {
		t.Errorf("safe negation rejected: %v", err)
	}
}

func TestSeedDomains(t *testing.T) {
	s := musicSchema()
	q := MustParse("q(N) :- r1(A, N, Y1), r2(volare, Y2, A), r3(elvis, AL)")
	ty, err := Validate(q, s)
	if err != nil {
		t.Fatal(err)
	}
	seeds := ty.SeedDomains()
	if len(seeds) != 2 || seeds[0] != "Artist" || seeds[1] != "Title" {
		t.Errorf("SeedDomains = %v", seeds)
	}
}

func TestEliminateConstants(t *testing.T) {
	s := musicSchema()
	q := MustParse("q(N) :- r1(A, N, Y1), r2(volare, Y2, A)")
	ty, err := Validate(q, s)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := EliminateConstants(q, s, ty)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Query.IsConstantFree() {
		t.Fatalf("rewriting still has constants: %s", pre.Query)
	}
	if len(pre.Consts) != 1 || pre.Consts[0].Value != "volare" || pre.Consts[0].Domain != "Title" {
		t.Fatalf("Consts = %+v", pre.Consts)
	}
	rel := pre.Schema.Relation(pre.Consts[0].Name)
	if rel == nil || rel.Arity() != 1 || !rel.Free() || rel.Domains[0] != "Title" {
		t.Fatalf("artificial relation schema: %v", rel)
	}
	// The rewritten query must validate against the extended schema.
	if _, err := Validate(pre.Query, pre.Schema); err != nil {
		t.Fatalf("rewritten query invalid: %v", err)
	}
	// One extra atom for the constant.
	if len(pre.Query.Body) != len(q.Body)+1 {
		t.Errorf("body length %d, want %d", len(pre.Query.Body), len(q.Body)+1)
	}
	// Input schema untouched.
	if s.Has(pre.Consts[0].Name) {
		t.Error("EliminateConstants mutated the input schema")
	}
}

func TestEliminateConstantsRepeatedAndHead(t *testing.T) {
	s := schema.MustParse(`
rev^ooi(Person, ConfName, Year)
conf^ooo(Paper, ConfName, Year)
`)
	q := MustParse("q(icde, R) :- rev(R, icde, Y), conf(P, icde, Y)")
	ty, err := Validate(q, s)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := EliminateConstants(q, s, ty)
	if err != nil {
		t.Fatal(err)
	}
	// icde appears three times (twice in body, once in head) but yields one
	// artificial relation and one replacement variable.
	if len(pre.Consts) != 1 {
		t.Fatalf("Consts = %+v", pre.Consts)
	}
	if !pre.Query.IsConstantFree() {
		t.Fatalf("still has constants: %s", pre.Query)
	}
	if pre.HeadConsts[0] != "icde" {
		t.Errorf("HeadConsts = %v", pre.HeadConsts)
	}
	if !pre.Query.Head[0].IsVar {
		t.Errorf("head constant not replaced: %s", pre.Query)
	}
	v := pre.Query.Head[0].Name
	if pre.Query.Body[1].Args[1].Name != v || pre.Query.Body[2].Args[1].Name != v {
		t.Errorf("occurrences should share the variable: %s", pre.Query)
	}
}

func TestEliminateConstantsNameCollision(t *testing.T) {
	s := schema.MustParse(`r^oo(A, A)`)
	q := MustParse("q(X) :- r(X, foo), r(X, 'Foo')")
	ty, err := Validate(q, s)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := EliminateConstants(q, s, ty)
	if err != nil {
		t.Fatal(err)
	}
	if len(pre.Consts) != 2 {
		t.Fatalf("want 2 artificial relations, got %+v", pre.Consts)
	}
	if pre.Consts[0].Name == pre.Consts[1].Name {
		t.Errorf("names collide: %+v", pre.Consts)
	}
	if pre.Consts[0].Value != "foo" || pre.Consts[1].Value != "Foo" {
		t.Errorf("constants by slot = %+v, want foo then Foo", pre.Consts)
	}
}

// TestConstRelationsAreMarked: what makes a relation of the extended schema
// artificial, and which constant it stands for, is data on the relation —
// never read back out of its name, which a user's relation may share a
// prefix with and which cannot spell a constant faithfully.
func TestConstRelationsAreMarked(t *testing.T) {
	s := schema.MustParse("l_volare^o(Title)\nr2^oio(Title, Year, Artist)")
	q := MustParse("q(A) :- r2('Hello World', Y, A), l_volare('hello world')")
	ty, err := Validate(q, s)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := EliminateConstants(q, s, ty)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []string{"Hello World", "hello world"} {
		rel := pre.Schema.Relation(pre.Consts[k].Name)
		if rel == nil || rel.Const == nil || *rel.Const != want || pre.Consts[k].Value != want {
			t.Errorf("slot %d: relation %v of %+v does not carry %q", k, rel, pre.Consts[k], want)
		}
	}
	for _, name := range s.Names() {
		if pre.Schema.Relation(name).Const != nil {
			t.Errorf("%s is a relation of the user's schema, not a constant", name)
		}
	}
	// A schema that took an artificial relation's name is refused, not
	// silently read as the constant.
	clash := schema.MustParse("l_0^o(Title)\nr2^oio(Title, Year, Artist)")
	q = MustParse("q(A) :- r2(volare, Y, A)")
	if ty, err = Validate(q, clash); err != nil {
		t.Fatal(err)
	}
	if _, err := EliminateConstants(q, clash, ty); err == nil {
		t.Error("want an error for a schema relation named like an artificial one")
	}
}
