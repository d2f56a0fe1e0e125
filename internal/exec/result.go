// Package exec executes query plans over access-limited sources. It
// provides the evaluation strategies of the paper:
//
//   - Naive: the reference algorithm of Fig. 1 ([Li & Chang, ICDE 2000]):
//     probe every relation with every untried combination of known values
//     until no access yields anything new, then evaluate the query over the
//     accumulated cache; the untried combinations are what the semi-naive
//     enumerator the optimized executor uses hands over, so nothing keeps a
//     tried-set;
//   - FastFailing and Pipelined: the two strategies of the one executor of
//     ⊂-minimal plans (run), which generates access tuples from the input
//     domains, never repeats an access (per-relation meta-caches) and folds
//     every extraction back into caches and domains. FastFailing (Section
//     IV) populates the position groups in the plan's ordering, one round
//     trip at a time, running an early non-emptiness test before each group,
//     and evaluates the query at the end; Pipelined (Section V, the Toorjah
//     engine) opens every group at once, keeps up to roundTripsInFlight
//     round trips in flight per relation whose source can block
//     (source.CanBlock; those of a source that cannot are made on the
//     coordinator, one at a time, as fast-fail makes all of its), and joins
//     incrementally, so answers stream as soon as they are derivable;
//   - Union: the disjuncts of a UCQ, concurrently, into one answer set.
//
// Probes leave every executor through one access path per relation (access:
// cache, meter, pinned source), where an access is counted once. Answers
// leave every executor through one sink, which applies the answer
// limit and builds the Result, and they leave in bursts: the one answer
// callback is func(burst []datalog.Tuple, last bool), called with the
// answers derived since it was last called, in derivation order, just before
// the executor sends a round trip, just before it waits for one to land, and
// on every way out of a run — last set on the call a run that completes
// makes from its finish, after which none follows. The slice is valid only
// during the call.
//
// The query's constants reach an execution as values, never as structure:
// the optimized strategies seed the cache of each artificial constant
// relation from the plan's constant vector (plan.Plan.Consts, by slot), so a
// plan generated once for a query shape runs for any constants it is bound
// to (plan.Plan.Bind); Naive is handed the query itself, constants in place.
//
// All strategies compute the same answer — the
// set of obtainable answers under the access limitations — which the tests
// assert against the Datalog least-fixpoint reference semantics.
package exec

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"toorjah/internal/datalog"
	"toorjah/internal/source"
)

// Result is the outcome of one query execution.
type Result struct {
	// Answers is the deduplicated answer relation, a root of the symbol
	// table: its tuples resolve while the Result is reachable.
	Answers *datalog.Relation
	// Stats has per-relation access accounting (relations never probed are
	// absent): what reached the sources.
	Stats map[string]source.Stats
	// Demanded is the number of accesses the execution sent on a round
	// trip, whoever answered them: for a run that completes,
	// Demanded − TotalAccesses() is what the cross-query cache absorbed —
	// hits, and accesses collapsed onto another request's round trip — and
	// zero without a cache.
	Demanded int
	// EarlyEmpty reports that the fast-failing test proved the answer empty
	// before all groups were populated.
	EarlyEmpty bool
	// Truncated reports that the run stopped early, on context cancellation
	// or at its answer limit, leaving work undone or an answer withheld; the
	// answers are a sound subset of the obtainable ones (after a
	// cancellation, empty for queries with negation, where no partial
	// answer is sound).
	Truncated bool
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// TimeToFirst is the time from the start of the execution until its
	// first answer was emitted — for every executor; the ones that derive
	// their answers at completion emit the first one then. Zero when there
	// was no answer.
	TimeToFirst time.Duration
}

// TotalAccesses sums accesses over all relations.
func (r *Result) TotalAccesses() int {
	n := 0
	for _, s := range r.Stats {
		n += s.Accesses
	}
	return n
}

// TotalBatches sums source round trips over all relations; with batching
// disabled it equals TotalAccesses.
func (r *Result) TotalBatches() int {
	n := 0
	for _, s := range r.Stats {
		n += s.Batches
	}
	return n
}

// TotalTuples sums extracted tuples over all relations.
func (r *Result) TotalTuples() int {
	n := 0
	for _, s := range r.Stats {
		n += s.Tuples
	}
	return n
}

// SortedAnswers returns the answers as sorted strings, for deterministic
// comparison and display. This is a result boundary: tuples materialize
// from symbol IDs into strings here.
func (r *Result) SortedAnswers() []string {
	if r.Answers == nil {
		return nil
	}
	out := make([]string, 0, r.Answers.Len())
	for _, t := range r.Answers.Tuples() {
		out = append(out, strings.Join(t.Strings(), ","))
	}
	sort.Strings(out)
	return out
}

// AnswerSet returns the answers as a set of encoded keys: the result leaves
// the engine, and callers compare answer sets as maps of their own.
func (r *Result) AnswerSet() map[string]bool {
	set := make(map[string]bool)
	if r.Answers == nil {
		return set
	}
	for _, t := range r.Answers.Tuples() {
		set[t.Key()] = true
	}
	return set
}

// String renders a short execution summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "answers=%d accesses=%d tuples=%d elapsed=%s",
		r.Answers.Len(), r.TotalAccesses(), r.TotalTuples(), r.Elapsed)
	if r.EarlyEmpty {
		b.WriteString(" (early empty)")
	}
	return b.String()
}
