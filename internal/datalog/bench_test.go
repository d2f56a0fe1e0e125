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
// extracted tuple once the joins have asked for their indexes: asked for
// while the relation is empty, and again once it is full.
func BenchmarkRelationInsertIndexed(b *testing.B) {
	tuples := benchTuples(1024, 64)
	r := NewRelation("r", 3)
	lookups := func() {
		benchSink += len(r.Lookup([]int{0}, tuples[0][:1])) + len(r.Lookup([]int{1, 2}, tuples[0][1:]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset()
		lookups()
		for _, t := range tuples {
			r.Insert(t)
		}
		lookups()
	}
}

// BenchmarkEvalRuleDelta times the incremental join of the executors: two
// new tuples of one body atom against a full, indexed relation at the
// other, through a rule compiled once.
func BenchmarkEvalRuleDelta(b *testing.B) {
	join, err := Compile(rule(b, "q(V, W) :- a(K, G, V), c(K, G2, W)"), 1)
	if err != nil {
		b.Fatal(err)
	}
	db := DB{}
	for _, t := range benchTuples(1024, 64) {
		db.Get("a", len(t)).Insert(t)
		db.Get("c", len(t)).Insert(t)
	}
	delta := []Tuple{db["c"].Tuples()[17], db["c"].Tuples()[901]}
	var m Machine
	derived := 0
	count := func(Tuple) { derived++ }
	if err := join.Run(&m, db, delta, count); err != nil { // builds a's index
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		derived = 0
		if err := join.Run(&m, db, delta, count); err != nil || derived != 2 {
			b.Fatalf("derived %d tuples, err %v; want 2", derived, err)
		}
		benchSink += derived
	}
}

// BenchmarkCompileRule times what planning a query shape pays once per rule
// and body position: the paper's q1 rewritten over its caches.
func BenchmarkCompileRule(b *testing.B) {
	r := rule(b, "q(R) :- hat_pub1_1(P, R), hat_conf_1(P, C, Y), hat_rev_1(R, C, Y), hat_l_0_1(C)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := Compile(r, i%len(r.Body))
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(c.steps)
	}
}

// BenchmarkRelationContains times a membership test, hit and miss
// alternating, at the arities of the paper's relations.
func BenchmarkRelationContains(b *testing.B) {
	for _, arity := range []int{2, 3} {
		b.Run(fmt.Sprintf("arity%d", arity), func(b *testing.B) {
			tuples := benchTuples(2048, 64)
			r := NewRelation("r", arity)
			for _, t := range tuples[:1024] {
				r.Insert(t[:arity])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r.Contains(tuples[i%2048][:arity]) {
					benchSink++
				}
			}
		})
	}
}

// BenchmarkRelationLookup times an index lookup on the first column — a
// bucket of one — and on the second — a bucket of sixteen.
func BenchmarkRelationLookup(b *testing.B) {
	for _, arity := range []int{2, 3} {
		b.Run(fmt.Sprintf("arity%d", arity), func(b *testing.B) {
			tuples := benchTuples(1024, 64)
			r := NewRelation("r", arity)
			for _, t := range tuples {
				r.Insert(t[:arity])
			}
			first, second := []int{0}, []int{1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := tuples[i%1024]
				benchSink += len(r.Lookup(first, t[:1])) + len(r.Lookup(second, t[1:2]))
			}
		})
	}
}
