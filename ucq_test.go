package toorjah

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"toorjah/internal/gen"
	"toorjah/internal/source/sourcetest"
	"toorjah/internal/sym"
)

// ucqPubSystem builds a system over a small publication instance, with every
// table source wrapped in a Counter beneath whatever the System layers on
// top (cache, latency), so the counters observe exactly the probes that
// reach the tables.
func ucqPubSystem(t *testing.T, seed int64, opts ...SystemOption) (*System, map[string]*sourcetest.Counter) {
	t.Helper()
	sch, db := gen.Publication(seed, gen.SmallPublication())
	return auditedSystem(t, sch, db, opts...)
}

// ucqPubText is a union of three overlapping publication disjuncts: all
// three share the conf/rev tail, so their access sets overlap heavily and a
// shared cache has real duplicate probes to collapse.
const ucqPubText = `
q(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)
q(R) :- pub2(P, R), conf(P, C, Y), rev(R, C, Y)
q(R) :- sub(P, R), conf(P, C, Y), rev(R, C, Y)
`

func underlying(counters map[string]*sourcetest.Counter) int {
	n := 0
	for _, c := range counters {
		n += c.Stats().Accesses
	}
	return n
}

// TestUCQBatchesPropagated is the regression test for the old hand-rolled
// stats merge that summed only Accesses and Tuples: a batched UCQ run must
// report its source round trips, with fewer round trips than accesses.
func TestUCQBatchesPropagated(t *testing.T) {
	for _, mode := range []string{"parallel", "sequential"} {
		sys, _ := ucqPubSystem(t, 1)
		u, err := sys.PrepareUCQ(ucqPubText)
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		if mode == "parallel" {
			res, err = u.Execute(context.Background()) // default MaxBatch = 16
		} else {
			res, err = u.Execute(context.Background(), WithExecOptions(Options{MaxConcurrent: -1}))
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalAccesses() == 0 {
			t.Fatalf("%s: no accesses recorded", mode)
		}
		if got := res.TotalBatches(); got == 0 {
			t.Errorf("%s: TotalBatches = 0 for %d accesses (Batches dropped in the merge)",
				mode, res.TotalAccesses())
		} else if got > res.TotalAccesses() {
			t.Errorf("%s: %d round trips for %d accesses", mode, got, res.TotalAccesses())
		} else if got == res.TotalAccesses() {
			t.Errorf("%s: batching bought nothing (%d round trips = accesses)", mode, got)
		}
	}
}

// TestUCQParallelCachedNoMoreAccesses is the concurrency acceptance
// property: parallel UCQ execution over a shared cross-query cache performs
// no more total source accesses than the sequential loop on the same
// instance, and the cache's singleflight guarantees no distinct binding is
// ever probed twice even with every disjunct in flight at once — at the
// default batch bound, where overlapping disjuncts miss on overlapping
// batches.
func TestUCQParallelCachedNoMoreAccesses(t *testing.T) {
	seqSys, seqCounters := ucqPubSystem(t, 7, WithCache(CacheOptions{}))
	seqU, err := seqSys.PrepareUCQ(ucqPubText)
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := seqU.Execute(context.Background(), WithExecOptions(Options{MaxConcurrent: -1}))
	if err != nil {
		t.Fatal(err)
	}
	seqProbes := underlying(seqCounters)
	if seqProbes == 0 {
		t.Fatal("sequential run probed nothing")
	}

	parSys, parCounters := ucqPubSystem(t, 7, WithCache(CacheOptions{}))
	parU, err := parSys.PrepareUCQ(ucqPubText)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := parU.Execute(context.Background(), WithExecOptions(Options{MaxConcurrent: len(parU.Disjuncts())}))
	if err != nil {
		t.Fatal(err)
	}
	parProbes := underlying(parCounters)

	if parProbes > seqProbes {
		t.Errorf("parallel cached run probed %d times, sequential needs %d", parProbes, seqProbes)
	}
	for rel, ctr := range parCounters {
		if st := ctr.Stats(); st.Accesses != ctr.DistinctAccesses() {
			t.Errorf("%s: %d probes for %d distinct bindings (singleflight failed to collapse)",
				rel, st.Accesses, ctr.DistinctAccesses())
		}
	}
	if got, want := strings.Join(parRes.SortedAnswers(), ";"), strings.Join(seqRes.SortedAnswers(), ";"); got != want {
		t.Errorf("parallel answers = %q, sequential = %q", got, want)
	}
	// The overlapping disjuncts really did share work: the cache absorbed
	// duplicate probes (hits or collapsed flights), so the merged Result
	// stats — only probes that reached the sources — match the counters.
	if tot := parSys.AccessCache().Totals(); tot.Hits+tot.Collapsed == 0 {
		t.Errorf("cache absorbed nothing: %+v", tot)
	}
	if parRes.TotalAccesses() != parProbes {
		t.Errorf("merged stats report %d accesses, counters saw %d", parRes.TotalAccesses(), parProbes)
	}
}

// TestUCQCancellation: a cancelled context truncates the union into a sound
// subset of the obtainable answers, for both the concurrent executor and
// the stream.
func TestUCQCancellation(t *testing.T) {
	fullSys, _ := ucqPubSystem(t, 3)
	fullU, err := fullSys.PrepareUCQ(ucqPubText)
	if err != nil {
		t.Fatal(err)
	}
	full, err := fullU.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	obtainable := full.AnswerSet()

	// Pre-cancelled: nothing runs, nothing is probed, the result is a
	// truncated empty union.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := fullU.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Answers.Len() != 0 || res.TotalAccesses() != 0 {
		t.Errorf("pre-cancelled: truncated=%v answers=%d accesses=%d",
			res.Truncated, res.Answers.Len(), res.TotalAccesses())
	}

	// Mid-run: per-access latency makes completion impossible inside the
	// deadline, so the run must stop early with a sound subset. Unbatched,
	// every probe pays the latency, and the full workload needs hundreds.
	for _, mode := range []string{"execute", "stream"} {
		sys, _ := ucqPubSystem(t, 3, WithLatency(time.Millisecond))
		u, err := sys.PrepareUCQ(ucqPubText)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		var r *Result
		if mode == "execute" {
			r, err = u.Execute(ctx, WithExecOptions(Options{MaxBatch: -1}))
		} else {
			r, err = u.Execute(ctx, WithExecutor(ExecutorPipelined), WithExecOptions(Options{MaxBatch: -1}))
		}
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !r.Truncated {
			t.Errorf("%s: cancelled mid-run but not Truncated", mode)
		}
		for k := range r.AnswerSet() {
			if !obtainable[k] {
				t.Errorf("%s: truncated run invented answer %q", mode, k)
			}
		}
	}
}

// TestUCQStreamDedupAndLimit: overlapping disjuncts stream each distinct
// answer once, and a limit caps the stream and marks it truncated when
// answers remained — the oracle's streamed-once and truncated-subset, under
// every executor — and the time to the first answer is reported.
func TestUCQStreamDedupAndLimit(t *testing.T) {
	sys := pubUCQSystem(t)
	c := caseOf(t, sys, pubUCQText)
	c.Limit = 1
	checkFacade(t, c)
	u, err := sys.PrepareUCQ(pubUCQText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Execute(context.Background(), OnAnswer(func(Tuple) {}))
	if err != nil || res.TimeToFirst == 0 || res.TimeToFirst > res.Elapsed {
		t.Errorf("TimeToFirst = %v, Elapsed = %v (%v)", res.TimeToFirst, res.Elapsed, err)
	}
}

// TestUCQRebindCachesNoStaleRows: a union pins its sources before its
// disjuncts wrap the access cache, and a rebind landing in between must not
// let the old source's rows be filed where the new source's queries read
// them. Both tables are at the same epoch, so only the cache's incarnation
// tells their rows apart. The rebind runs from unionPinned, the hook between
// pinning the sources and running the disjuncts; the union answers over the
// old table (its pinned data version), and a query after it over the new one.
func TestUCQRebindCachesNoStaleRows(t *testing.T) {
	sch, err := ParseSchema("s^o(A)\nt^o(A)\nr^io(A, B)")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch, WithCache(CacheOptions{}))
	for name, row := range map[string]Row{"s": {"a"}, "t": {"a"}, "r": {"a", "old"}} {
		if err := sys.BindRows(name, row); err != nil {
			t.Fatal(err)
		}
	}
	u, err := sys.PrepareUCQ("q(B) :- s(A), r(A, B)\nq(B) :- t(A), r(A, B)")
	if err != nil {
		t.Fatal(err)
	}
	unionPinned = func() {
		if err := sys.BindRows("r", Row{"a", "new"}); err != nil {
			t.Error(err)
		}
	}
	res, err := u.Execute(context.Background())
	unionPinned = nil
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.SortedAnswers(), ";"); got != "old" {
		t.Errorf("the union answered %q over its pinned sources, want old", got)
	}
	q, err := sys.Prepare("q(B) :- s(A), r(A, B)")
	if err != nil {
		t.Fatal(err)
	}
	res, err = q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.SortedAnswers(), ";"); got != "new" {
		t.Errorf("after the rebind a query answered %q, want new: the union cached the old source's rows under the new binding", got)
	}
}

// TestUnionHoldsItsPinnedSnapshot: a union answers over the snapshots it
// pinned, and their IDs are the union's from the pinning on. Between the
// pinning and the disjuncts (unionPinned) every row of the table is deleted —
// enough to compact the log, so the table holds none of their values — the
// symbol table is swept, and as many fresh values are inserted, which would
// take the IDs a sweep freed. The union still answers the deleted rows'
// values.
func TestUnionHoldsItsPinnedSnapshot(t *testing.T) {
	sch, err := ParseSchema("live^io(K, V)")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(sch)
	const n = 1100 // past storage's compaction threshold of 1024 tombstones
	rows, fresh, want := make([]Row, n), make([]Row, n), make([]string, n)
	for i := range rows {
		rows[i] = Row{"k", fmt.Sprintf("union-held-%d", i)}
		fresh[i] = Row{"x", fmt.Sprintf("union-fresh-%d", i)}
		want[i] = rows[i][1]
	}
	if err := sys.BindRows("live", rows...); err != nil {
		t.Fatal(err)
	}
	u, err := sys.PrepareUCQ("q(V) :- live(k, V)\nq(V) :- live(k, V), live(k, V)")
	if err != nil {
		t.Fatal(err)
	}
	unionPinned = func() {
		if _, err := sys.Delete("live", rows...); err != nil {
			t.Error(err)
		}
		sym.Default.Sweep()
		if _, err := sys.Insert("live", fresh...); err != nil {
			t.Error(err)
		}
	}
	res, err := u.Execute(context.Background())
	unionPinned = nil
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	if got := res.SortedAnswers(); !slices.Equal(got, want) {
		t.Errorf("the union answered %d values over its pinned snapshot, want the %d deleted ones; first %q",
			len(got), len(want), got[:min(3, len(got))])
	}
}

// TestUnionOfOneIsItsCQ: a text of one disjunct is a CQ. PrepareUCQ fails
// with Prepare's error, and Execute runs the disjunct's Query.Execute:
// the same answers and access bill, and an OnBursts sink that sees last.
func TestUnionOfOneIsItsCQ(t *testing.T) {
	sys := musicSystem(t)
	for _, text := range []string{"q(N) :- r1(A, N", "q(N) :- nosuch(N)", "q(N) :- r1(A, N, Y, extra)"} {
		_, want := sys.Prepare(text)
		if _, err := sys.PrepareUCQ("# a comment\n" + text); want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("PrepareUCQ(%q) failed with %v, want Prepare's %v", text, err, want)
		}
	}
	const text = "q(N) :- r1(A, N, Y1), r2(volare, Y2, A)"
	q, err := sys.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.PrepareUCQ("# Example 1\n" + text)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	last := false
	got, err := u.Execute(context.Background(), WithExecutor(ExecutorFastFail),
		OnBursts(func(_ []Tuple, l bool) { last = l }))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.SortedAnswers(), want.SortedAnswers()) || got.TotalAccesses() != want.TotalAccesses() || !last {
		t.Errorf("union of one: answers %v, %d accesses, last %v; want the CQ's %v, %d accesses, last true",
			got.SortedAnswers(), got.TotalAccesses(), last, want.SortedAnswers(), want.TotalAccesses())
	}
}
