package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"toorjah/internal/datalog"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// sink is the one way answers leave an executor — the naive algorithm, both
// strategies of the optimized executor and the union runner (under its
// mutex) all emit through one — and the one place the answer limit is
// applied: exactly Limit answers when a limit is set, and Truncated exactly
// when an answer was derived and withheld or the run left work undone.
//
// Answers leave in bursts. emit only records; deliver hands the consumer
// everything recorded since the last call, in emit order, as one slice. An
// executor delivers in three places: just before it sends a round trip,
// just before it waits for one to land, and in finish. So an answer is never
// held while a source is awaited, a consumer that cancels from the callback
// stops the run before its next access, and a run that ends without another
// send hands its last answers over from finish: the one delivery flagged last.
type sink struct {
	answers   *datalog.Relation
	limit     int // 0: unlimited
	onAnswers func(burst []datalog.Tuple, last bool)
	burst     []datalog.Tuple // recorded, not yet delivered; reused
	start     time.Time       // of the execution
	first     time.Duration   // when the first answer was emitted; 0 for none
	withheld  bool            // a fresh answer arrived beyond the limit
	sizedBy   *atomic.Int64   // the plan's answer count, recorded by finish; nil: none
}

// maxAnswerHint caps the answers a run sizes its answer relation for, so one
// big run does not make every later run of its shape allocate as much.
const maxAnswerHint = 1024

// sizeFrom sizes the answer relation for the answers the plan's last
// execution found, up to the limit and maxAnswerHint, and has finish record
// this one's for the next.
func (k *sink) sizeFrom(last *atomic.Int64) {
	n := min(int(last.Load()), maxAnswerHint)
	if k.limit > 0 {
		n = min(n, k.limit)
	}
	k.answers.Grow(n)
	k.sizedBy = last
}

// newSink starts an execution's clock and opens its empty answer relation.
func newSink(name string, arity int, opts Options, onAnswers func([]datalog.Tuple, bool)) *sink {
	return &sink{
		answers:   datalog.NewRelation(name, arity),
		limit:     opts.Limit,
		onAnswers: onAnswers,
		start:     time.Now(),
	}
}

// full reports that the limit is reached: nothing more will be emitted, so
// an executor that derives answers as it goes may stop extracting.
func (k *sink) full() bool { return k.limit > 0 && k.answers.Len() >= k.limit }

// emit takes one derived answer, in a buffer the caller may reuse: dropped
// when already taken, withheld — a fresh answer beyond the limit proves the
// limit cut the answer set — when the sink is full, otherwise copied into
// the answer relation and recorded in the burst the next deliver hands over.
func (k *sink) emit(t datalog.Tuple) {
	if k.full() {
		k.withheld = k.withheld || !k.answers.Contains(t)
		return
	}
	t, fresh := k.answers.InsertCopy(t)
	if !fresh {
		return
	}
	if k.first == 0 {
		k.first = time.Since(k.start)
	}
	if k.onAnswers != nil {
		k.burst = append(k.burst, t)
	}
}

// deliver hands the consumer the answers emitted since the last delivery;
// last says no delivery follows, which only finish can know. The slice is
// the sink's own and is reused: it is valid only during the call.
func (k *sink) deliver(last bool) {
	if len(k.burst) == 0 {
		return
	}
	k.onAnswers(k.burst, last)
	k.burst = k.burst[:0]
}

// evaluate emits the answers of the query rule over the tuples extracted
// into db — how an executor that does not join incrementally delivers.
// Every tuple of db is a real one, so after a truncated run the answers are
// a sound subset — except with negation, where none is sound before the
// caches are complete and none is emitted.
func (k *sink) evaluate(query *datalog.Compiled, m *datalog.Machine, db datalog.DB, truncated bool) error {
	if truncated && len(query.Rule().Negated) > 0 {
		return nil
	}
	if err := query.Run(m, db, nil, k.emit); err != nil {
		return fmt.Errorf("exec: evaluating %s: %w", query.Rule().Head.Pred, err)
	}
	return nil
}

// finish delivers what is still recorded, as the run's last burst, and
// builds the execution's Result — the one place a Result is made. Answers
// become a root of the symbol table here, while the run's hold is still
// active, so they resolve for as long as the relation is reachable; an empty
// relation holds no ID and is not registered.
func (k *sink) finish(stats map[string]source.Stats, demanded int, truncated, earlyEmpty bool) *Result {
	k.deliver(true)
	if k.sizedBy != nil {
		k.sizedBy.Store(int64(k.answers.Len()))
	}
	if k.answers.Len() > 0 {
		sym.AddRoot(sym.Default, k.answers)
	}
	return &Result{
		Answers:     k.answers,
		Stats:       stats,
		Demanded:    demanded,
		EarlyEmpty:  earlyEmpty,
		Truncated:   truncated || k.withheld,
		Elapsed:     time.Since(k.start),
		TimeToFirst: k.first,
	}
}
