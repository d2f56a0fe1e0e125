package schema

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePattern(t *testing.T) {
	p, err := ParsePattern("ioo")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "ioo" {
		t.Fatalf("round trip: got %q", p.String())
	}
	if p.Free() {
		t.Error("ioo should not be free")
	}
	if got := p.Inputs(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Inputs() = %v, want [0]", got)
	}
	if got := p.Outputs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Outputs() = %v, want [1 2]", got)
	}
}

func TestParsePatternInvalid(t *testing.T) {
	for _, bad := range []string{"iox", "Io", "1", "i o"} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("ParsePattern(%q): want error", bad)
		}
	}
}

func TestParsePatternEmptyIsFree(t *testing.T) {
	p, err := ParsePattern("")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Free() {
		t.Error("empty pattern must be free")
	}
}

func TestNewRelation(t *testing.T) {
	r, err := NewRelation("rev", "ooi", "Person", "ConfName", "Year")
	if err != nil {
		t.Fatal(err)
	}
	if r.Arity() != 3 {
		t.Errorf("Arity = %d, want 3", r.Arity())
	}
	if r.Free() {
		t.Error("rev^ooi should not be free")
	}
	if got := r.String(); got != "rev^ooi(Person,ConfName,Year)" {
		t.Errorf("String() = %q", got)
	}
	in := r.InputDomains()
	if len(in) != 1 || in[0] != "Year" {
		t.Errorf("InputDomains = %v", in)
	}
	out := r.OutputDomains()
	if len(out) != 2 || out[0] != "Person" || out[1] != "ConfName" {
		t.Errorf("OutputDomains = %v", out)
	}
}

func TestNewRelationArityMismatch(t *testing.T) {
	if _, err := NewRelation("r", "io", "A"); err == nil {
		t.Error("want arity mismatch error")
	}
	if _, err := NewRelation("", "o", "A"); err == nil {
		t.Error("want empty-name error")
	}
	if _, err := NewRelation("r", "o", ""); err == nil {
		t.Error("want empty-domain error")
	}
}

func TestSchemaAddDuplicate(t *testing.T) {
	s := MustNew(MustRelation("r", "o", "A"))
	if err := s.Add(MustRelation("r", "oo", "A", "B")); err == nil {
		t.Error("want duplicate-relation error")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := MustNew(
		MustRelation("r1", "io", "A", "B"),
		MustRelation("r2", "io", "B", "C"),
		MustRelation("r3", "io", "C", "A"),
	)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Has("r2") || s.Has("nope") {
		t.Error("Has misbehaves")
	}
	if s.Relation("r3").Domains[1] != "A" {
		t.Error("Relation lookup wrong")
	}
	names := s.Names()
	if strings.Join(names, ",") != "r1,r2,r3" {
		t.Errorf("Names = %v", names)
	}
}

func TestSchemaClone(t *testing.T) {
	s := MustNew(MustRelation("r1", "io", "A", "B"))
	c := s.Clone()
	c.Relation("r1").Domains[0] = "Z"
	if s.Relation("r1").Domains[0] != "A" {
		t.Error("Clone shares domain slice")
	}
}

func TestParseSchemaRoundTrip(t *testing.T) {
	text := `
# the publication schema of the paper, Section V
pub1^io(Paper, Person)
pub2^oo(Paper, Person)
conf^ooo(Paper, ConfName, Year)
rev^ooi(Person, ConfName, Year)
sub^oi(Paper, Person)
rev_icde^iio(Person, Paper, Eval)
`
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	re, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parse of String(): %v", err)
	}
	if re.String() != s.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", s, re)
	}
	ri := s.Relation("rev_icde")
	if got := ri.Pattern.String(); got != "iio" {
		t.Errorf("rev_icde pattern = %q", got)
	}
}

func TestParseSchemaErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"r1(A,B)",             // missing pattern
		"r1^io(A,B",           // missing close paren
		"r1^iox(A,B,C)",       // bad mode
		"r1^io(A,B)\nr1^o(A)", // duplicate
		"r1^io(A,)",           // empty domain
		"^io(A,B)",            // empty name
		"r1^i()",              // nullary with nonempty pattern
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): want error", bad)
		}
	}
}

func TestParseNullary(t *testing.T) {
	s, err := Parse("r0^()")
	if err != nil {
		t.Fatal(err)
	}
	r := s.Relation("r0")
	if r.Arity() != 0 || !r.Free() {
		t.Errorf("nullary relation: arity=%d free=%v", r.Arity(), r.Free())
	}
}

// TestQueryableExample2 reproduces paper Example 2: over
// {r1^io(A,C), r2^io(B,C), r3^io(C,B)}, with seed domain C (from constant
// c1), relations r3 and r2 are queryable but r1 is not, because no value of
// domain A is ever obtainable.
func TestQueryableExample2(t *testing.T) {
	s := MustNew(
		MustRelation("r1", "io", "A", "C"),
		MustRelation("r2", "io", "B", "C"),
		MustRelation("r3", "io", "C", "B"),
	)
	q := s.QueryableRelations([]Domain{"C"})
	if !q["r3"] || !q["r2"] {
		t.Errorf("r2, r3 should be queryable: %v", q)
	}
	if q["r1"] {
		t.Errorf("r1 should not be queryable: %v", q)
	}

	// With seed A (query q1 of Example 2 mentions constant a1 of domain A),
	// everything becomes queryable: r1 gives C, C gives B via r3, B gives
	// access to r2.
	q = s.QueryableRelations([]Domain{"A"})
	for _, r := range []string{"r1", "r2", "r3"} {
		if !q[r] {
			t.Errorf("%s should be queryable from seed A: %v", r, q)
		}
	}
}

func TestQueryableFreeRelationsAlwaysQueryable(t *testing.T) {
	s := MustNew(
		MustRelation("free", "oo", "A", "B"),
		MustRelation("lim", "io", "B", "C"),
		MustRelation("stuck", "io", "Z", "A"),
	)
	q := s.QueryableRelations(nil)
	if !q["free"] {
		t.Error("free relation must be queryable with no seeds")
	}
	if !q["lim"] {
		t.Error("lim is reachable via free's B output")
	}
	if q["stuck"] {
		t.Error("stuck needs domain Z which nothing provides")
	}
}

// ObtainableDomains computes the closure of domains whose values can be
// obtained starting from the seed domains, under the schema's access
// patterns.
func (s *Schema) ObtainableDomains(seeds []Domain) map[Domain]bool {
	obtainable := make(map[Domain]bool, len(seeds))
	for _, d := range seeds {
		obtainable[d] = true
	}
	for changed := true; changed; {
		changed = false
		for _, name := range s.order {
			r := s.rels[name]
			ok := true
			for _, d := range r.InputDomains() {
				if !obtainable[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, d := range r.OutputDomains() {
				if !obtainable[d] {
					obtainable[d] = true
					changed = true
				}
			}
		}
	}
	return obtainable
}

func TestObtainableDomains(t *testing.T) {
	s := MustNew(
		MustRelation("free", "oo", "A", "B"),
		MustRelation("lim", "io", "B", "C"),
	)
	got := s.ObtainableDomains(nil)
	for _, d := range []Domain{"A", "B", "C"} {
		if !got[d] {
			t.Errorf("domain %s should be obtainable", d)
		}
	}
	if got["Z"] {
		t.Error("Z should not be obtainable")
	}
}

// Property: queryability is monotone in the seed set — adding seeds never
// removes a queryable relation.
func TestQueryableMonotoneInSeeds(t *testing.T) {
	s := MustNew(
		MustRelation("r1", "io", "A", "B"),
		MustRelation("r2", "iio", "B", "C", "D"),
		MustRelation("r3", "oi", "C", "D"),
		MustRelation("r4", "oo", "E", "F"),
	)
	all := []Domain{"A", "B", "C", "D", "E", "F"}
	f := func(mask, extra uint8) bool {
		var seeds, more []Domain
		for i, d := range all {
			if mask&(1<<uint(i)) != 0 {
				seeds = append(seeds, d)
				more = append(more, d)
			} else if extra&(1<<uint(i)) != 0 {
				more = append(more, d)
			}
		}
		small := s.QueryableRelations(seeds)
		big := s.QueryableRelations(more)
		for r, ok := range small {
			if ok && !big[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every relation reported queryable has all input domains inside
// the obtainable-domain closure.
func TestQueryableConsistentWithObtainable(t *testing.T) {
	s := MustNew(
		MustRelation("r1", "io", "A", "B"),
		MustRelation("r2", "io", "B", "C"),
		MustRelation("r3", "io", "C", "A"),
		MustRelation("r4", "oo", "D", "B"),
	)
	all := []Domain{"A", "B", "C", "D"}
	f := func(mask uint8) bool {
		var seeds []Domain
		for i, d := range all {
			if mask&(1<<uint(i)) != 0 {
				seeds = append(seeds, d)
			}
		}
		q := s.QueryableRelations(seeds)
		obt := s.ObtainableDomains(seeds)
		for name, ok := range q {
			if !ok {
				continue
			}
			for _, d := range s.Relation(name).InputDomains() {
				if !obt[d] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
