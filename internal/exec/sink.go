package exec

import (
	"fmt"
	"time"

	"toorjah/internal/cq"
	"toorjah/internal/datalog"
	"toorjah/internal/source"
)

// sink is the one way answers leave an executor — the naive algorithm, both
// strategies of the optimized executor and the union runner (under its
// mutex) all emit through one — and the one place the answer limit is
// applied: exactly Limit answers when a limit is set, and Truncated exactly
// when an answer was derived and withheld or the run left work undone.
type sink struct {
	answers  *datalog.Relation
	limit    int // 0: unlimited
	onAnswer func(datalog.Tuple)
	start    time.Time     // of the execution
	first    time.Duration // when the first answer was emitted; 0 for none
	withheld bool          // a fresh answer arrived beyond the limit
}

// newSink starts an execution's clock and opens its empty answer relation.
func newSink(name string, arity int, opts Options, onAnswer func(datalog.Tuple)) *sink {
	return &sink{
		answers:  datalog.NewRelation(name, arity),
		limit:    opts.Limit,
		onAnswer: onAnswer,
		start:    time.Now(),
	}
}

// full reports that the limit is reached: nothing more will be emitted, so
// an executor that derives answers as it goes may stop extracting.
func (k *sink) full() bool { return k.limit > 0 && k.answers.Len() >= k.limit }

// emit delivers one derived answer: dropped when already delivered,
// withheld — a fresh answer beyond the limit proves the limit cut the
// answer set — when the sink is full, otherwise recorded and handed to
// onAnswer.
func (k *sink) emit(t datalog.Tuple) {
	if k.full() {
		k.withheld = k.withheld || !k.answers.Contains(t)
		return
	}
	if !k.answers.Insert(t) {
		return
	}
	if k.first == 0 {
		k.first = time.Since(k.start)
	}
	if k.onAnswer != nil {
		k.onAnswer(t)
	}
}

// evaluate emits the answers of q over the tuples extracted into db — how
// an executor that does not join incrementally delivers. Every tuple of db
// is a real one, so after a truncated run the answers are a sound subset —
// except with negation, where none is sound before the caches are complete
// and none is emitted.
func (k *sink) evaluate(q *cq.CQ, db datalog.DB, truncated bool) error {
	if truncated && len(q.Negated) > 0 {
		return nil
	}
	answers, err := datalog.EvalQuery(q, db)
	if err != nil {
		return fmt.Errorf("exec: evaluating %s: %w", q.Name, err)
	}
	for _, t := range answers.Tuples() {
		k.emit(t)
	}
	return nil
}

// finish builds the execution's Result — the one place a Result is made.
func (k *sink) finish(stats map[string]source.Stats, truncated, earlyEmpty bool) *Result {
	return &Result{
		Answers:     k.answers,
		Stats:       stats,
		EarlyEmpty:  earlyEmpty,
		Truncated:   truncated || k.withheld,
		Elapsed:     time.Since(k.start),
		TimeToFirst: k.first,
	}
}
