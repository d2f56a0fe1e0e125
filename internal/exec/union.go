package exec

import (
	"context"
	"sync"

	"toorjah/internal/datalog"
	"toorjah/internal/obs"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// DisjunctRun executes one disjunct of a union. The runner hands it a
// context derived from the union's — the run must honor it the way the CQ
// executors honor their ctx parameter (stop probing, return a truncated
// sound subset) — and the union's emit, through which the run must deliver
// every answer it derives, burst by burst, as the CQ executors deliver
// through onAnswers. A run must return a non-nil Result unless it errors.
type DisjunctRun func(ctx context.Context, emit func([]datalog.Tuple)) (*Result, error)

// Union executes the disjuncts of a union of conjunctive queries
// concurrently with bounded parallelism and merges their outcomes into one
// Result — the UCQ semantics of the paper's Section II (the answer to a
// union is the union of the per-CQ answers):
//
//   - answers are deduplicated across disjuncts, and onAnswers (when
//     non-nil) observes each distinct answer exactly once, in the burst of
//     the first disjunct to deliver it — a disjunct's burst with the
//     answers the union already holds taken out, passed on at once and never
//     as last: a disjunct's last burst is not the union's, whose other
//     disjuncts may be awaiting their sources; calls are serialized, never
//     concurrent;
//   - per-relation statistics merge via source.Stats.Add, so Accesses,
//     Batches and Tuples all survive, and Demanded sums (a disjunct's
//     probes are counted against whichever disjunct actually reached the
//     source — under a shared cross-query cache, concurrent identical
//     probes collapse into one flight and are counted once);
//   - Truncated and EarlyEmpty are OR-ed over disjuncts: a union containing
//     any truncated disjunct is itself a sound subset of the obtainable
//     answers, and EarlyEmpty records that at least one disjunct's
//     fast-failing test proved that disjunct empty early;
//   - Elapsed and TimeToFirst are wall-clock times of the whole union, not
//     sums over disjuncts.
//
// The union reads Options.MaxConcurrent and Options.Limit; the first
// disjunct error cancels the rest and is returned, while a cancelled ctx
// instead yields a truncated result, never an error.
func Union(ctx context.Context, name string, arity int, runs []DisjunctRun, opts Options, onAnswers func(burst []datalog.Tuple, last bool)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The union's answers are held from the first disjunct's to the last;
	// the disjuncts join the hold.
	h := sym.Default.HoldFor(ctx)
	defer h.Release()
	ctx, cancel := context.WithCancel(sym.WithHold(ctx))
	defer cancel()

	union := newSink(name, arity, opts, onAnswers)
	stats := make(map[string]source.Stats)
	var (
		mu         sync.Mutex // guards union, stats and the flags
		demanded   int
		truncated  bool
		earlyEmpty bool
		firstErr   error
	)

	// emit folds one disjunct's burst into the union and passes on what was
	// new to it (onAnswers is thereby serialized under mu, taken once per
	// burst); an answer withheld at the limit proves the limit truncated the
	// union and cancels the remaining disjuncts.
	emit := func(burst []datalog.Tuple) {
		mu.Lock()
		defer mu.Unlock()
		for _, t := range burst {
			union.emit(t)
		}
		union.deliver(false)
		if union.withheld {
			cancel()
		}
	}

	sem := make(chan struct{}, opts.maxConcurrent())
	var wg sync.WaitGroup
	for di, run := range runs {
		if ctx.Err() != nil {
			// Cancelled (or limit-stopped) before this disjunct started: its
			// answers are missing, so the union is a sound subset — unless a
			// disjunct error is what tore the context down, in which case the
			// error wins below.
			mu.Lock()
			truncated = true
			mu.Unlock()
			break
		}
		sem <- struct{}{} // bound occupancy; released when the disjunct ends
		wg.Add(1)
		go func(di int, run DisjunctRun) {
			defer wg.Done()
			defer func() { <-sem }()
			// One span per disjunct when the union context carries a trace;
			// the disjunct's executor hangs its own spans off it.
			dctx, dsp := obs.StartSpan(ctx, "disjunct")
			dsp.SetAttr("index", di)
			res, err := run(dctx, emit)
			dsp.End()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				cancel() // stop the other disjuncts from spending accesses
				return
			}
			for rel, st := range res.Stats {
				cur := stats[rel]
				cur.Add(st)
				stats[rel] = cur
			}
			demanded += res.Demanded
			truncated = truncated || res.Truncated
			earlyEmpty = earlyEmpty || res.EarlyEmpty
		}(di, run)
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	return union.finish(stats, demanded, truncated, earlyEmpty), nil
}
