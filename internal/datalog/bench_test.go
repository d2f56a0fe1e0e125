package datalog

import (
	"fmt"
	"testing"
)

// benchTuples are n rows (k_i, g_{i mod groups}, v_i): distinct, with a
// unique first column and a second column that repeats.
func benchTuples(n, groups int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = T(fmt.Sprintf("k%d", i), fmt.Sprintf("g%d", i%groups), fmt.Sprintf("v%d", i))
	}
	return out
}

var benchSink int

// BenchmarkRelationInsertIndexed times filling a recycled relation that
// carries two indexes — what a cache relation of the executors pays per
// extracted tuple once the joins have asked for their indexes.
func BenchmarkRelationInsertIndexed(b *testing.B) {
	tuples := benchTuples(1024, 64)
	r := NewRelation("r", 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset()
		r.Lookup([]int{0}, tuples[0][:1])
		r.Lookup([]int{1, 2}, tuples[0][1:])
		for _, t := range tuples {
			r.Insert(t)
		}
		benchSink += r.Len()
	}
}

// BenchmarkEvalRuleDelta times the incremental join of the executors: two
// new tuples of one body atom against a full, indexed relation at the
// other.
func BenchmarkEvalRuleDelta(b *testing.B) {
	r := rule(b, "q(V, W) :- a(K, G, V), c(K, G2, W)")
	db := DB{}
	for _, t := range benchTuples(1024, 64) {
		db.Insert("a", t)
		db.Insert("c", t)
	}
	delta := []Tuple{db["c"].Tuples()[17], db["c"].Tuples()[901]}
	if _, err := EvalRuleWithDelta(r, db, delta, 1); err != nil { // builds a's index
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := EvalRuleWithDelta(r, db, delta, 1)
		if err != nil || len(out) != 2 {
			b.Fatalf("derived %d tuples, err %v; want 2", len(out), err)
		}
		benchSink += len(out)
	}
}
