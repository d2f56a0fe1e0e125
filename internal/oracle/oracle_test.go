package oracle

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"toorjah/internal/cq"
	"toorjah/internal/gen"
	"toorjah/internal/source"
)

// TestGenerateIsDeterministic: a seed names one case — query, instance,
// limit, script and reference.
func TestGenerateIsDeterministic(t *testing.T) {
	for seed := int64(900); seed < 910; seed++ {
		a, b := Generate(seed), Generate(seed)
		if x, y := fmt.Sprint(a.Text(), a.Load(), a.Limit, a.Script, a.Ref), fmt.Sprint(b.Text(), b.Load(), b.Limit, b.Script, b.Ref); x != y {
			t.Errorf("seed %d: two cases:\n%s\n%s", seed, x, y)
		}
	}
}

// TestCensus: over the seeds the drivers run (900–939), the reference
// answers nearly every case, every family of case occurs, and at least 15 %
// of the cases are stable — enough for the complete property to mean
// something (10 of the 40 are).
func TestCensus(t *testing.T) {
	census := map[string]int{}
	for seed := int64(900); seed < 940; seed++ {
		c := Generate(seed)
		has := map[string]bool{"answers": len(c.Ref.Answers) > 0, "union": len(c.Disjuncts) > 1, "limit": c.Limit > 0, "script": c.Script != nil, "stable": c.Stable}
		for _, pool := range Pools(c.Schema, c.DB) {
			has["empty string"] = has["empty string"] || pool[0] == ""
		}
		for _, q := range c.Disjuncts {
			has["negation"] = has["negation"] || len(q.Negated) > 0
			has["head constant"] = has["head constant"] || slices.ContainsFunc(q.Head, func(tm cq.Term) bool { return !tm.IsVar })
			for _, a := range q.Body {
				for i, tm := range a.Args {
					has["repeated variable"] = has["repeated variable"] || tm.IsVar && slices.Contains(a.Args[i+1:], tm)
				}
			}
		}
		for family, ok := range has {
			if ok {
				census[family]++
			}
		}
	}
	t.Logf("census of 40 cases: %v", census)
	if census["answers"] < 36 {
		t.Errorf("%d of 40 cases have answers, want at least 90%%", census["answers"])
	}
	if census["stable"] < 6 {
		t.Errorf("%d of 40 cases are stable, want at least 15%%", census["stable"])
	}
	for _, family := range []string{"negation", "repeated variable", "head constant", "union", "limit", "empty string", "script"} {
		if census[family] == 0 {
			t.Errorf("no case has a %s", family)
		}
	}
}

// TestStabilityTheorem: on every stable case the reference's obtainable
// answer is the complete one, and on some unstable cases it is not — so
// Stable is what separates them, not a property every case has.
func TestStabilityTheorem(t *testing.T) {
	stable, differ := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		c := Generate(seed)
		same := slices.Equal(c.Ref.Answers, c.Ref.Complete)
		if c.Stable {
			stable++
			if !same {
				t.Errorf("seed %d: stable, obtains %q of the complete %q\nquery: %s", seed, c.Ref.Answers, c.Ref.Complete, c.Text())
			}
		} else if !same {
			differ++
		}
	}
	t.Logf("of 200 cases, %d are stable and %d unstable ones obtain less than the complete answer", stable, differ)
	if differ == 0 {
		t.Error("no unstable case obtains less than its complete answer")
	}
}

// TestHostileValuesRoundTrip: every hostile value survives cq.Term.String and
// cq.Parse as the constant it is, and the renaming is injective per domain.
func TestHostileValuesRoundTrip(t *testing.T) {
	for d := 0; d < 4; d++ {
		seen := map[string]bool{}
		for k := 0; k < 40; k++ {
			v := hostile(fmt.Sprintf("d%d_v%d", d, k))
			if seen[v] {
				t.Errorf("d%d: %q named twice", d, v)
			}
			seen[v] = true
			text := fmt.Sprintf("q(X) :- r(%s, X)", cq.C(v))
			q, err := cq.Parse(text)
			if err != nil || q.Body[0].Args[0] != cq.C(v) {
				t.Errorf("%q written %s parses to %v (%v)", v, text, q, err)
			}
		}
	}
}

// TestPlantAnswersThePaperQueries: on the paper's publication instance, where
// q1–q3 answer nothing, Plant gives each an answer.
func TestPlantAnswersThePaperQueries(t *testing.T) {
	for i, text := range gen.PublicationQueries {
		sch, db := gen.Publication(1, gen.SmallPublication())
		q := cq.MustParse(text)
		planted, ok := Plant(sch, db, q, rand.New(rand.NewSource(int64(i))))
		if !ok {
			t.Fatalf("%s: nothing planted", text)
		}
		reg, err := source.FromDatabase(sch, db, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Reference(sch, reg, []*cq.CQ{q})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(ref.Answers, planted) {
			t.Errorf("%s: answers %q, planted %q", text, ref.Answers, planted)
		}
	}
}
