package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"toorjah/internal/cq"
	"toorjah/internal/datalog"
	"toorjah/internal/obs"
	"toorjah/internal/plan"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// job is one access tuple queued for a wrapper.
type job struct {
	cache   *plan.Cache
	binding []sym.ID
}

// probeResult carries a wrapper's extraction back to the coordinator.
type probeResult struct {
	cache   *plan.Cache
	binding []sym.ID
	rows    []datalog.Tuple
	err     error
}

// Pipelined executes the plan with the Toorjah engine of Section V: every
// relation gets a wrapper goroutine pool with a bounded access queue, the
// coordinator "distils" new access tuples into the queues as soon as the
// cache database can generate them, and answers are emitted through
// onAnswer the moment an incremental join derives them. The final result
// carries the same answer set as FastFailing.
//
// For queries with negated atoms, incremental emission would be unsound
// (a later extraction can invalidate a tentative answer), so answers are
// emitted only after all caches are complete.
func Pipelined(ctx context.Context, p *plan.Plan, reg *source.Registry, opts Options, onAnswer func(datalog.Tuple)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	counted, counters := instrument(reg, opts)
	// Released last of all the deferred calls below: by then every worker
	// has exited, so nothing reads a binding out of the arena any more.
	sc := getScratch()
	defer sc.release()
	st := newGroupState(p, counted, opts, sc)

	// One "pipeline" span covers the whole distillation; the workers' probe
	// batches hang off it (the span is nil — free — when the context
	// carries no trace).
	pctx, psp := obs.StartSpan(ctx, "pipeline")
	defer psp.End()

	// One queue and worker pool per relation occurring in the plan.
	queues := make(map[string]chan job)
	results := make(chan probeResult)
	var wg sync.WaitGroup
	var stopped atomic.Bool
	for _, c := range p.Caches {
		if c.IsConst {
			continue
		}
		name := c.Source.Rel.Name
		if _, ok := queues[name]; ok {
			continue
		}
		w := counted.Source(name)
		if w == nil {
			return nil, fmt.Errorf("pipelined: no source bound for relation %s", name)
		}
		q := make(chan job, opts.queueLen())
		queues[name] = q
		maxBatch := opts.maxBatch()
		for i := 0; i < opts.parallelism(); i++ {
			wg.Add(1)
			go func(w source.Wrapper, q chan job) {
				defer wg.Done()
				for j := range q {
					// Drain the queue into a batch: every access tuple
					// already waiting rides the same source round trip, up
					// to the MaxBatch bound.
					batch := []job{j}
				drain:
					for len(batch) < maxBatch {
						select {
						case j2, ok := <-q:
							if !ok {
								break drain
							}
							batch = append(batch, j2)
						default:
							break drain
						}
					}
					if stopped.Load() {
						// Truncated run: pass queued jobs through without
						// touching the source.
						for _, jb := range batch {
							results <- probeResult{cache: jb.cache, binding: jb.binding}
						}
						continue
					}
					bindings := make([][]sym.ID, len(batch))
					for k, jb := range batch {
						bindings[k] = jb.binding
					}
					raws, err := probe(pctx, w, bindings)
					if err != nil {
						for _, jb := range batch {
							results <- probeResult{cache: jb.cache, binding: jb.binding, err: err}
						}
						continue
					}
					for k, jb := range batch {
						results <- probeResult{cache: jb.cache, binding: jb.binding, rows: raws[k]}
					}
				}
			}(w, q)
		}
	}
	// cleanup stops the workers: close the queues, then drain the results
	// channel until every worker has exited, so no send can block forever.
	// It runs exactly once — explicitly on the success paths (so access
	// statistics are final when the result is built) and deferred for the
	// error paths.
	var cleanupOnce sync.Once
	cleanup := func() {
		cleanupOnce.Do(func() {
			stopped.Store(true)
			for _, q := range queues {
				close(q)
			}
			go func() {
				wg.Wait()
				close(results)
			}()
			for range results {
			}
		})
	}
	defer cleanup()

	streaming := len(p.Query.Negated) == 0
	answers := datalog.NewRelation(p.Query.Name, len(p.Query.Head))
	queryRule := &datalog.Rule{
		Head:    cq.Atom{Pred: p.Query.Name, Args: p.Query.Head},
		Body:    p.Query.Body,
		Negated: p.Query.Negated,
	}
	var firstAnswer time.Duration
	emit := func(t datalog.Tuple) {
		if !answers.Insert(t) {
			return
		}
		if firstAnswer == 0 {
			firstAnswer = time.Since(start)
		}
		if onAnswer != nil {
			onAnswer(t)
		}
	}

	// onFresh folds a batch of new cache tuples into the incremental
	// answer join.
	onFresh := func(pred string, fresh []datalog.Tuple) error {
		if !streaming {
			return nil
		}
		delta := datalog.NewRelation(pred, len(fresh[0]))
		for _, t := range fresh {
			delta.Insert(t)
		}
		for i, a := range p.Query.Body {
			if a.Pred != pred {
				continue
			}
			derived, err := datalog.EvalRuleWithDelta(queryRule, st.cdb, delta, i)
			if err != nil {
				return err
			}
			for _, t := range derived {
				emit(t)
			}
		}
		return nil
	}

	// generate derives every new access binding the caches currently
	// support. Meta-cache hits are folded in synchronously; probes already
	// in flight for the same relation binding register the extra cache as a
	// waiter instead of re-probing ("every access tuple is never sent twice
	// to the same wrapper"); everything else is queued. Like the meta-cache,
	// the in-flight table exists only where occurrences of a relation can
	// share an access.
	var pending []job
	inflight := make(map[string]*sym.BindMap[[]*plan.Cache])
	inflightFor := func(rel string) *sym.BindMap[[]*plan.Cache] {
		if st.metaFor(rel) == nil {
			return nil
		}
		fl := inflight[rel]
		if fl == nil {
			fl = new(sym.BindMap[[]*plan.Cache])
			inflight[rel] = fl
		}
		return fl
	}
	generate := func() error {
		for _, c := range p.Caches {
			if c.IsConst {
				continue
			}
			rel := c.Source.Rel
			rm := st.metaFor(rel.Name)
			fl := inflightFor(rel.Name)
			// The semi-naive enumerator hands over each candidate binding of
			// this node exactly once across all generate calls.
			_, err := st.newBindings(c, func(binding []sym.ID) error {
				if rm != nil {
					if rows, hit := rm.Get(binding); hit {
						return ingest(st, c, rows, onFresh)
					}
				}
				if fl != nil {
					if waiters, flying := fl.Get(binding); flying {
						fl.Put(binding, append(waiters, c))
						return nil
					}
					fl.Put(binding, nil)
				}
				// The job outlives this callback (the enumerator reuses
				// binding), so it gets its own copy, cut from the arena.
				pending = append(pending, job{cache: c, binding: sc.keep(binding)})
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	limitHit := func() bool { return opts.Limit > 0 && answers.Len() >= opts.Limit }
	stopRequested := func() bool { return limitHit() || ctxDone(ctx) }

	if err := generate(); err != nil {
		return nil, err
	}
	outstanding := 0
	for (len(pending) > 0 || outstanding > 0) && !stopRequested() {
		// Dispatch as many pending jobs as the queues accept.
		kept := pending[:0]
		for _, j := range pending {
			select {
			case queues[j.cache.Source.Rel.Name] <- j:
				outstanding++
			default:
				kept = append(kept, j)
			}
		}
		pending = kept
		if outstanding == 0 {
			continue
		}
		res := <-results
		outstanding--
		if errors.Is(res.err, errCancelled) {
			// Unanswered, not failed: back on the pending list, where the
			// job marks the run truncated.
			pending = append(pending, job{cache: res.cache, binding: res.binding})
			continue
		}
		if res.err != nil {
			return nil, res.err
		}
		relName := res.cache.Source.Rel.Name
		if rm := st.metaFor(relName); rm != nil {
			rm.Put(res.binding, res.rows)
		}
		if err := ingest(st, res.cache, res.rows, onFresh); err != nil {
			return nil, err
		}
		if fl := inflight[relName]; fl != nil {
			if waiters, ok := fl.Get(res.binding); ok {
				for _, waiter := range waiters {
					if err := ingest(st, waiter, res.rows, onFresh); err != nil {
						return nil, err
					}
				}
				fl.Delete(res.binding)
			}
		}
		if err := generate(); err != nil {
			return nil, err
		}
	}

	truncated := stopRequested() && (len(pending) > 0 || outstanding > 0)
	if truncated {
		// Stop the workers from touching the sources for jobs still queued;
		// only probes already in flight complete.
		stopped.Store(true)
	}
	// Drain probes still in flight, then stop the workers; their remaining
	// extractions are discarded when the limit or cancellation stopped the
	// run.
	for ; outstanding > 0; outstanding-- {
		<-results
	}
	cleanup()

	if !truncated {
		// Authoritative final evaluation (also covers negation). The limit
		// applies here too: for negated queries this is where answers are
		// first emitted, and a client who asked for N gets N.
		final, err := datalog.EvalQuery(p.Query, st.cdb)
		if err != nil {
			return nil, fmt.Errorf("pipelined: final evaluation: %w", err)
		}
		for _, t := range final.Tuples() {
			if limitHit() && !answers.Contains(t) {
				truncated = true
				break
			}
			emit(t)
		}
	}
	return &Result{
		Answers:     answers,
		Stats:       statsOf(counters),
		Truncated:   truncated,
		Elapsed:     time.Since(start),
		TimeToFirst: firstAnswer,
	}, nil
}

// ingest inserts an extraction into a cache and forwards new tuples to the
// incremental join.
func ingest(st *groupState, c *plan.Cache, rows []datalog.Tuple, onFresh func(string, []datalog.Tuple) error) error {
	var fresh []datalog.Tuple
	for _, row := range rows {
		if st.cdb.Insert(c.Pred, row) {
			fresh = append(fresh, row)
		}
	}
	if len(fresh) > 0 {
		return onFresh(c.Pred, fresh)
	}
	return nil
}
