package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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

// relQueue is the coordinator's view of one relation of the plan: the
// bounded access queue its wrapper pool drains, and behind it, in arrival
// order, the access tuples the queue had no room for yet.
type relQueue struct {
	q       chan job
	pending *jobBuf // FIFO: jobs[head:] are waiting
	head    int
	// flying registers, where occurrences of the relation can share an
	// access (groupState.meta), the bindings queued or in flight, with the
	// other cache nodes waiting for the same extraction: "every access tuple
	// is never sent twice to the same wrapper".
	flying *sym.BindMap[[]*plan.Cache]
}

// Pipelined executes the plan with the Toorjah engine of Section V: every
// relation gets a wrapper goroutine pool with a bounded access queue, the
// coordinator "distils" new access tuples into the queues as soon as the
// cache database can generate them, and answers are emitted through
// onAnswer the moment an incremental join derives them. The final result
// carries the same answer set as FastFailing.
//
// The coordinator's work is proportional to what happens, not to what is
// held: an extraction updates the input domains from its own new tuples
// (groupState.ingest), only bindings containing a new value are enumerated,
// and each relation's waiting jobs are offered to its queue front to back
// until the first refusal.
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
	st, err := newGroupState(p, counted, opts, sc)
	if err != nil {
		return nil, err
	}

	// One "pipeline" span covers the whole distillation; the workers' probe
	// batches hang off it (the span is nil — free — when the context
	// carries no trace).
	pctx, psp := obs.StartSpan(ctx, "pipeline")
	defer psp.End()

	// One queue and worker pool per relation occurring in the plan; no
	// worker starts unless every relation has its source.
	rels := make([]relQueue, len(p.Relations))
	for _, name := range p.Relations {
		if counted.Source(name) == nil {
			return nil, fmt.Errorf("pipelined: no source bound for relation %s", name)
		}
	}
	results := make(chan probeResult)
	var wg sync.WaitGroup
	var stopped atomic.Bool
	maxBatch := opts.maxBatch()
	for ri, name := range p.Relations {
		w := counted.Source(name)
		r := &rels[ri]
		r.q = make(chan job, opts.queueLen())
		r.pending = sc.jobBuf()
		if st.meta[ri] != nil {
			r.flying = new(sym.BindMap[[]*plan.Cache])
		}
		for i := 0; i < opts.parallelism(); i++ {
			wg.Add(1)
			// The worker's batch lives in the scratch, which outlives it.
			go func(w source.Wrapper, q chan job, buf *jobBuf) {
				defer wg.Done()
				for j := range q {
					// Drain the queue into a batch: every access tuple
					// already waiting rides the same source round trip, up
					// to the MaxBatch bound.
					batch := append(buf.jobs[:0], j)
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
					buf.jobs = batch
					if stopped.Load() {
						// Truncated run: pass queued jobs through without
						// touching the source.
						for _, jb := range batch {
							results <- probeResult{cache: jb.cache, binding: jb.binding}
						}
						continue
					}
					bindings := buf.bindings[:0]
					for _, jb := range batch {
						bindings = append(bindings, jb.binding)
					}
					buf.bindings = bindings
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
			}(w, r.q, sc.jobBuf())
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
			for i := range rels {
				close(rels[i].q)
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

	answers := datalog.NewRelation(p.Query.Name, len(p.Query.Head))
	var firstAnswer time.Duration
	// emit delivers exactly Limit answers when a limit is set; a fresh
	// answer beyond it proves the limit cut the answer set (the rule the
	// union runner's emit applies).
	limitHit := func() bool { return opts.Limit > 0 && answers.Len() >= opts.Limit }
	overLimit := false
	emit := func(t datalog.Tuple) {
		if limitHit() {
			overLimit = overLimit || !answers.Contains(t)
			return
		}
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

	// extract folds an extraction into a cache and, for a positive query,
	// joins the new tuples — at the body position their cache occupies —
	// with the full caches elsewhere. Every answer has a last tuple to
	// arrive, and is derived when it does: the streamed join is complete.
	streaming := len(p.Query.Negated) == 0
	extract := func(c *plan.Cache, rows []datalog.Tuple) error {
		fresh, err := st.ingest(c, rows)
		if err != nil || len(fresh) == 0 || !streaming || c.QueryPos < 0 {
			return err
		}
		derived, err := datalog.EvalRuleWithDelta(p.QueryRule, st.cdb, fresh, c.QueryPos)
		for _, t := range derived {
			emit(t)
		}
		return err
	}

	// generate derives every new access binding the caches currently
	// support. Meta-cache hits are folded in synchronously; probes already
	// in flight for the same relation binding register the extra cache as a
	// waiter instead of re-probing; everything else joins its relation's
	// FIFO.
	waiting := 0 // jobs in the FIFOs
	generate := func() error {
		for _, c := range p.Caches {
			if c.IsConst {
				continue
			}
			r := &rels[c.Rel]
			rm := st.meta[c.Rel]
			// The semi-naive enumerator hands over each candidate binding of
			// this node exactly once across all generate calls.
			_, err := st.newBindings(c, func(binding []sym.ID) error {
				if rm != nil {
					if rows, hit := rm.Get(binding); hit {
						return extract(c, rows)
					}
					if waiters, flying := r.flying.Get(binding); flying {
						r.flying.Put(binding, append(waiters, c))
						return nil
					}
					r.flying.Put(binding, nil)
				}
				// The job outlives this callback (the enumerator reuses
				// binding), so it gets its own copy, cut from the arena.
				r.pending.jobs = append(r.pending.jobs, job{cache: c, binding: sc.keep(binding)})
				waiting++
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	stopRequested := func() bool { return limitHit() || ctxDone(ctx) }

	if err := generate(); err != nil {
		return nil, err
	}
	outstanding := 0
	for (waiting > 0 || outstanding > 0) && !stopRequested() {
		// Dispatch what the queues accept: each relation's FIFO is offered
		// front to back and left at the first refusal.
		for ri := range rels {
			r := &rels[ri]
			jobs := r.pending.jobs
		offer:
			for r.head < len(jobs) {
				select {
				case r.q <- jobs[r.head]:
					r.head++
					waiting--
					outstanding++
				default:
					break offer
				}
			}
			if r.head == len(jobs) {
				r.pending.jobs, r.head = jobs[:0], 0
			}
		}
		res := <-results
		outstanding--
		c := res.cache
		if errors.Is(res.err, errCancelled) {
			// Unanswered, not failed: back in the FIFO, where the job marks
			// the run truncated.
			r := &rels[c.Rel]
			r.pending.jobs = append(r.pending.jobs, job{cache: c, binding: res.binding})
			waiting++
			continue
		}
		if res.err != nil {
			return nil, res.err
		}
		if rm := st.meta[c.Rel]; rm != nil {
			rm.Put(res.binding, res.rows)
			if err := extract(c, res.rows); err != nil {
				return nil, err
			}
			fl := rels[c.Rel].flying
			waiters, _ := fl.Get(res.binding)
			for _, waiter := range waiters {
				if err := extract(waiter, res.rows); err != nil {
					return nil, err
				}
			}
			fl.Delete(res.binding)
		} else if err := extract(c, res.rows); err != nil {
			return nil, err
		}
		if err := generate(); err != nil {
			return nil, err
		}
	}

	truncated := overLimit || waiting > 0 || outstanding > 0
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

	if !streaming && !truncated {
		// With negation no answer is sound before every cache is complete,
		// so this evaluation is the first, and the only, one. The limit
		// applies here too: a client who asked for N gets N.
		final, err := datalog.EvalQuery(p.Query, st.cdb)
		if err != nil {
			return nil, fmt.Errorf("pipelined: final evaluation: %w", err)
		}
		for _, t := range final.Tuples() {
			emit(t)
		}
		truncated = overLimit
	}
	return &Result{
		Answers:     answers,
		Stats:       statsOf(counters),
		Truncated:   truncated,
		Elapsed:     time.Since(start),
		TimeToFirst: firstAnswer,
	}, nil
}
