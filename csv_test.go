package toorjah

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCSVEndToEnd exercises the cmd/toorjah data path: relations loaded
// from per-relation CSV files, bound as limited sources, queried with the
// optimized plan.
func TestCSVEndToEnd(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"pub1.csv": "p1,alice\np2,bob\n",
		"conf.csv": "p1,icde,y2008\np2,vldb,y2007\n",
		"rev.csv":  "alice,icde,y2008\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sch, err := ParseSchema(`
pub1^io(Paper, Person)
conf^ooo(Paper, ConfName, Year)
rev^ooi(Person, ConfName, Year)
`)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch)
	for _, rel := range sch.Relations() {
		f, err := os.Open(filepath.Join(dir, rel.Name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.LoadCSV(rel.Name, f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	q, err := sys.Prepare("q(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.SortedAnswers(), ";"); got != "alice" {
		t.Errorf("answers = %s, want alice", got)
	}
	if !q.IsConnectionQuery() {
		t.Error("q1 is a connection query (all domains share one term)")
	}
	if !q.Orderable() {
		t.Error("q1 is orderable (conf first)")
	}
}

// TestAnalysisAccessors covers the paper-classification accessors on the
// motivating query: q of Example 1 is neither orderable nor ∀-minimal-free;
// q3 of the evaluation is not a connection query.
func TestAnalysisAccessors(t *testing.T) {
	sys := musicSystem(t)
	q, err := sys.Prepare("q(N) :- r1(A, N, Y1), r2(volare, Y2, A)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Orderable() {
		t.Error("Example 1 requires recursion: not orderable")
	}
	if q.IsConnectionQuery() {
		t.Error("two Year variables: not a connection query")
	}

	sch, _ := ParseSchema(`
pub1^io(Paper, Person)
pub2^oo(Paper, Person)
conf^ooo(Paper, ConfName, Year)
rev^ooi(Person, ConfName, Year)
sub^oi(Paper, Person)
rev_icde^iio(Person, Paper, Eval)
`)
	sys2 := NewSystem(sch)
	q3, err := sys2.Prepare("q3(R) :- rev_icde(R, S, acc), sub(S, A), pub1(P, R), pub1(P, A), rev(R, icde, y2008), conf(P, icde, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if q3.IsConnectionQuery() {
		t.Error("the paper states q3 is not a connection query")
	}
}

// TestForAllMinimalAccessor: unique chain ordering implies ∀-minimality.
func TestForAllMinimalAccessor(t *testing.T) {
	sch, _ := ParseSchema(`
r1^io(A, B)
r2^io(B, C)
r3^io(C, A)
`)
	sys := NewSystem(sch)
	q, err := sys.Prepare("q(C) :- r1(a, B), r2(B, C)")
	if err != nil {
		t.Fatal(err)
	}
	if !q.ForAllMinimal() {
		t.Error("Example 7's unique ordering makes the plan ∀-minimal")
	}

	sch2, _ := ParseSchema("r1^o(A)\nr2^o(B)")
	sys2 := NewSystem(sch2)
	q2, err := sys2.Prepare("q(X) :- r1(X), r2(Y)")
	if err != nil {
		t.Fatal(err)
	}
	if q2.ForAllMinimal() {
		t.Error("Example 6 admits no ∀-minimal plan")
	}
}
