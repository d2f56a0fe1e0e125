package toorjah

import (
	"context"
	"strings"
	"testing"
)

// newExample1System builds the paper's Example 1 with the given options.
func newExample1System(t *testing.T, opts ...SystemOption) *System {
	t.Helper()
	sch, err := ParseSchema(`
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch, opts...)
	bind := func(name string, rows ...Row) {
		if err := sys.BindRows(name, rows...); err != nil {
			t.Fatal(err)
		}
	}
	bind("r1", Row{"modugno", "italy", "1928"}, Row{"madonna", "usa", "1958"}, Row{"dylan", "usa", "1941"})
	bind("r2", Row{"volare", "1958", "modugno"}, Row{"vogue", "1990", "madonna"}, Row{"hurricane", "1976", "dylan"})
	bind("r3", Row{"madonna", "like_a_virgin"}, Row{"dylan", "desire"})
	return sys
}

// TestWithMaxBatch: the facade threads the batch bound into every
// execution; answers and access counts are invariant, only the number of
// source round trips changes.
func TestWithMaxBatch(t *testing.T) {
	const queryText = "q(N) :- r1(A, N, Y1), r2(volare, Y2, A)"
	run := func(opts ...SystemOption) *Result {
		t.Helper()
		sys := newExample1System(t, opts...)
		q, err := sys.Prepare(queryText)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	batched := run() // default: batching on
	unbatched := run(WithMaxBatch(-1))
	if got, want := strings.Join(batched.SortedAnswers(), ";"), strings.Join(unbatched.SortedAnswers(), ";"); got != want {
		t.Errorf("answers differ: batched %q, unbatched %q", got, want)
	}
	if batched.TotalAccesses() != unbatched.TotalAccesses() {
		t.Errorf("batching changed the access count: %d vs %d",
			batched.TotalAccesses(), unbatched.TotalAccesses())
	}
	if unbatched.TotalBatches() != unbatched.TotalAccesses() {
		t.Errorf("WithMaxBatch(-1): %d round trips for %d accesses, want equal",
			unbatched.TotalBatches(), unbatched.TotalAccesses())
	}
	if batched.TotalBatches() > batched.TotalAccesses() {
		t.Errorf("batched run has more round trips (%d) than accesses (%d)",
			batched.TotalBatches(), batched.TotalAccesses())
	}
}
