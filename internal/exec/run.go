package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"toorjah/internal/datalog"
	"toorjah/internal/obs"
	"toorjah/internal/plan"
	"toorjah/internal/source"
	"toorjah/internal/sym"
)

// FastFailing executes a ⊂-minimal plan with the fast-failing strategy of
// Section IV: for each position group, in order, it first checks that the
// subquery over the already-populated caches is satisfiable (otherwise the
// answer is empty and execution stops), then populates the group's caches
// to a fixpoint, generating access bindings from the domain predicates and
// never repeating an access to a relation; finally it evaluates the
// rewritten query over the caches and hands the answers to onAnswers (when
// non-nil) as one burst, the run's last.
func FastFailing(ctx context.Context, p *plan.Plan, reg *source.Registry, opts Options, onAnswers func(burst []datalog.Tuple, last bool)) (*Result, error) {
	return run(ctx, p, reg, opts, true, onAnswers)
}

// Pipelined executes the plan with the Toorjah engine of Section V: the
// coordinator "distils" new access tuples into per-relation queues as soon
// as the cache database can generate them, several round trips per relation
// whose source can block are in flight at once, and the answers each landed
// round trip makes derivable are joined incrementally and handed to
// onAnswers, as one burst, before the coordinator sends a round trip, before
// it waits for one to land, and when the run finishes — that burst alone is
// flagged last. The final result carries the same answer set as FastFailing.
//
// For queries with negated atoms, incremental emission would be unsound
// (a later extraction can invalidate a tentative answer), so answers are
// emitted only after all caches are complete.
func Pipelined(ctx context.Context, p *plan.Plan, reg *source.Registry, opts Options, onAnswers func(burst []datalog.Tuple, last bool)) (*Result, error) {
	return run(ctx, p, reg, opts, false, onAnswers)
}

// relQueue is the coordinator's view of one relation of the plan: its
// source and the access queue of the paper's Fig. 5 — the access tuples
// generated for the relation, in arrival order, laid out flat, so that a
// round trip is a slice of them. Who asked for an access tuple is kept per
// enumerator pass, not per tuple: one pass queues for one cache node, so the
// queue is cut into runs.
type relQueue struct {
	w        source.Wrapper
	width    int        // IDs per access tuple: the relation's input positions
	ids      []sym.ID   // the access tuples, width IDs apiece
	n        int        // access tuples queued (a free access has no ID)
	runs     []ownerRun // the tuples each pass queued, in queue order
	cur      int        // the run holding the tuple at head
	head     int        // access tuples before head have been dispatched
	inflight int        // round trips dispatched and not yet landed
	// concurrent keeps up to roundTripsInFlight of the relation's round
	// trips in flight at once, each on a goroutine started for it: the run
	// is not staged and the pinned source can block. Otherwise the
	// coordinator makes them itself, one at a time.
	concurrent bool
	// shared makes the queue the relation's meta-cache, through which the
	// relation's occurrences share access results, so that no binding is
	// probed twice however many cache nodes ask for it: every access tuple
	// ever queued stays, filed in seen by its position, and meta says what is
	// known of its extraction. A shared queue is therefore not reused mid-run.
	// Off for a relation with a single occurrence — its node's enumerator
	// already visits every binding once — and under Options.NoMetaCache.
	shared bool
	seen   sym.RefTable
	meta   []metaEntry // per access tuple, when shared
}

// ownerRun is what one enumerator pass queued: the access tuples from where
// the run before it ends up to end, all asked for by the cache node whose
// plan.Cache.Index is node.
type ownerRun struct{ node, end int32 }

// metaEntry is what the meta-cache knows about one access tuple of a
// relation: its extraction once the round trip has landed, and until then
// the cache nodes, beside the one that queued it, waiting for it.
type metaEntry struct {
	rows    []datalog.Tuple
	landed  bool
	waiters []*plan.Cache
}

// find returns the queue position of the access tuple equal to binding, or
// −1, and the binding's hash.
func (r *relQueue) find(binding []sym.ID) (int32, uint32) {
	h := sym.HashIDs(binding)
	for at, ref := r.seen.First(h); ref >= 0; at, ref = r.seen.Next(at, h) {
		if from := int(ref) * r.width; slices.Equal(r.ids[from:from+r.width], binding) {
			return ref, h
		}
	}
	return -1, h
}

// file sorts the access tuples a pass of cache node c appended to a shared
// queue, from queue position from on, one by one in their order: one the
// meta-cache already holds the extraction of goes to extract on the spot;
// one another occurrence of the relation has queued or in flight waits for
// that extraction — "every access tuple is never sent twice to the same
// wrapper"; the rest stay queued and are filed in seen, so that later askers
// wait. The tail is compacted in place, and the pass's run trimmed to what
// stays — dropped when nothing does; an error from extract ends it there.
func (r *relQueue) file(c *plan.Cache, from int, extract func(*plan.Cache, []datalog.Tuple) error) error {
	w, keep := r.width, from
	var err error
	for i := from; i < r.n && err == nil; i++ {
		binding := r.ids[i*w : (i+1)*w]
		at, h := r.find(binding)
		switch {
		case at < 0:
			copy(r.ids[keep*w:], binding)
			r.seen.Add(h, int32(keep))
			r.meta = append(r.meta, metaEntry{})
			keep++
		case r.meta[at].landed:
			err = extract(c, r.meta[at].rows)
		default:
			r.meta[at].waiters = append(r.meta[at].waiters, c)
		}
	}
	r.ids, r.n = r.ids[:keep*w], keep
	if keep == from {
		r.runs = r.runs[:len(r.runs)-1]
	} else {
		r.runs[len(r.runs)-1].end = int32(keep)
	}
	return err
}

// queued records that a pass of cache node c appended count access tuples
// to the queue: one run.
func (r *relQueue) queued(c *plan.Cache, count int) {
	r.n += count
	r.runs = append(r.runs, ownerRun{node: int32(c.Index), end: int32(r.n)})
}

// flight is one round trip: up to MaxBatch consecutive access tuples of one
// relation's queue, probed together as the block of the queue's IDs they
// occupy. It owns the result slots the source is handed and is recycled
// with them. The source assigns every slot, so the slots are cleared once:
// land drops each row it reads, and recycle clears them only when land
// stopped short of the last.
type flight struct {
	rel    int               // position in Plan.Relations
	from   int               // queue position of the first access tuple
	run    int               // the queue's run holding that tuple
	rows   [][]datalog.Tuple // per access tuple, the slot its extraction lands in
	err    error
	landed bool // land read every slot and dropped the rows it found
}

// run executes a ⊂-minimal plan: one coordinator loop that generates the
// access tuples the caches newly support (generate), answers each from
// the meta-cache, attaches it to a round trip already under way, or queues
// it on its relation; cuts the queues into round trips of at most MaxBatch;
// folds every extraction back into the caches and the input domains
// (ingest); and repeats until nothing new can be generated. Its work is
// proportional to what happens, not to what is held: an extraction updates
// the domains from its own new tuples, only bindings containing a new value
// are enumerated, and a round trip reports back once.
//
// A staged run (fast-fail) opens the plan's position groups one at a time,
// in order — each, unless Options.NoEarlyFailure, only after the subquery
// over the groups before it proved non-empty — and evaluates the query once,
// over the final caches. Otherwise (pipelined) every group is open from the
// start and each extraction's new tuples are joined into answers as they
// land. Where a round trip runs is the source's to say (relQueue.concurrent).
func run(ctx context.Context, p *plan.Plan, reg *source.Registry, opts Options, staged bool, onAnswers func([]datalog.Tuple, bool)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// One hold for the whole run: from interning the constants until the
	// last round trip has landed and the Result is rooted.
	h := sym.Default.HoldFor(ctx)
	defer h.Release()
	sc := getScratch()
	defer sc.release()
	k := &sc.k
	*k = newSink(p.Query.Name, len(p.Query.Head), opts, onAnswers, k.burst)
	k.sizeFrom(p.LastAnswers)
	paths, err := openAccess(reg, p.Relations, opts)
	if err != nil {
		return nil, err
	}
	st, err := newGroupState(h, p, sc)
	if err != nil {
		return nil, err
	}
	rels := sc.relQueues(len(p.Relations))
	var landed chan *flight // round trips reporting back; made for a source that can block
	for _, c := range p.Caches {
		if !c.IsConst {
			r := &rels[c.Rel]
			r.w, r.width = paths[c.Rel].top, len(c.DomainPreds)
			r.concurrent = !staged && source.CanBlock(paths[c.Rel].src)
			r.shared = r.shared || c.Shared && !opts.NoMetaCache
			if r.concurrent && landed == nil {
				landed = make(chan *flight)
			}
		}
	}

	var (
		maxBatch, par = opts.maxBatch(), opts.inFlight()
		outstanding   = 0     // round trips in flight
		demanded      = 0     // accesses sent on a round trip
		unanswered    = false // a round trip was cut off by cancellation
		opened        = 0     // position groups [0, opened) are open
	)
	// await receives the next round trip to land, first handing over what
	// has been derived: no answer is held while a source is awaited.
	await := func() *flight {
		k.deliver(false)
		fl := <-landed
		outstanding--
		return fl
	}
	// No round trip outlives the run: whatever is still in flight when it
	// ends — at the limit, on cancellation, on an error — lands first, its
	// extraction discarded. This runs before the scratch is released, so
	// nothing reads an access tuple out of it afterwards.
	drain := func() {
		for outstanding > 0 {
			await()
		}
	}
	defer drain()
	// An error ends the run mid-step, short of finish: the answers derived
	// before it still reach the consumer.
	defer k.deliver(false)

	// Spans: one "group" per position group when staged, else one
	// "pipeline" over the whole distillation; the probes hang off whichever
	// is current (nil — free — when the context carries no trace).
	pctx, span := ctx, (*obs.Span)(nil)
	defer func() { span.End() }()

	// extract folds a delta into a cache and, when answers are joined
	// incrementally, joins the new tuples — at the body position their cache
	// occupies — with the full caches elsewhere. Every answer has a last
	// tuple to arrive, and is derived when it does: the join is complete.
	streaming := !staged && len(p.Query.Negated) == 0
	extract := func(c *plan.Cache, rows []datalog.Tuple) error {
		fresh, err := st.ingest(c, rows)
		if err != nil || len(fresh) == 0 || !streaming || c.QueryPos < 0 {
			return err
		}
		return p.QueryDeltas[c.QueryPos].Run(&sc.join, st.cdb, fresh, k.emit)
	}

	// generate queues the access tuples cache node c newly supports: the
	// semi-naive enumerator appends each, exactly once, straight onto the
	// relation's queue. A shared queue then sorts the tail it was handed
	// (file).
	generate := func(c *plan.Cache) (bool, error) {
		r := &rels[c.Rel]
		if !r.shared && r.head == r.n && r.inflight == 0 {
			// Nothing refers to the queue's storage: reuse it.
			r.ids, r.runs, r.n, r.cur, r.head = r.ids[:0], r.runs[:0], 0, 0, 0
		}
		from := r.n
		var n int
		r.ids, n = st.enums[c.Index].next(r.ids)
		if n == 0 {
			return false, nil
		}
		r.queued(c, n)
		if !r.shared {
			return true, nil
		}
		return true, r.file(c, from, extract)
	}

	// land folds a finished round trip back: each extraction goes to the
	// meta-cache, to the node that asked and to the nodes that waited. The
	// extractions of consecutive accesses one node asked for are one delta
	// (sc.fold), extracted once; an access with waiters closes it first, and
	// its waiters extract after it, in the order accesses landed. Who asked
	// is read off the queue's runs by a cursor that starts at the flight's
	// first run and only moves forward.
	land := func(fl *flight) error {
		defer sc.recycle(fl)
		if errors.Is(fl.err, errCancelled) {
			unanswered = true
			return nil
		}
		if fl.err != nil {
			return fl.err
		}
		r, caches := &rels[fl.rel], p.Caches
		run := fl.run
		fold, by := sc.fold[:0], int32(-1)
		flush := func() error {
			if len(fold) == 0 {
				return nil
			}
			err := extract(caches[by], fold)
			clear(fold) // no row stays reachable from the scratch
			fold = fold[:0]
			return err
		}
		for i, rows := range fl.rows {
			var waiters []*plan.Cache
			if r.shared {
				e := &r.meta[fl.from+i]
				waiters = e.waiters
				*e = metaEntry{rows: rows, landed: true}
			}
			if len(rows) == 0 {
				continue // most accesses of a selective plan extract nothing
			}
			fl.rows[i] = nil
			for int(r.runs[run].end) <= fl.from+i {
				run++
			}
			if node := r.runs[run].node; node != by {
				if err := flush(); err != nil {
					return err
				}
				by = node
			}
			fold = append(fold, rows...)
			if len(waiters) == 0 {
				continue
			}
			if err := flush(); err != nil {
				return err
			}
			for _, c := range waiters {
				if err := extract(c, rows); err != nil {
					return err
				}
			}
		}
		err := flush()
		sc.fold = fold
		fl.landed = true
		return err
	}

	stop := func() bool { return k.full() || ctxDone(ctx) }

	// dispatch cuts round trips off the front of a relation's queue while
	// there is room for them — always, when the coordinator makes them — and
	// the run has not been stopped. What has been derived is handed over
	// before each is sent; a cancel from the callback stops that access.
	dispatch := func(rel int) error {
		r := &rels[rel]
		for r.head < r.n && r.inflight < par {
			k.deliver(false)
			if stop() {
				break
			}
			for int(r.runs[r.cur].end) <= r.head {
				r.cur++
			}
			n := min(maxBatch, r.n-r.head)
			fl := sc.flight(n)
			fl.rel, fl.from, fl.run = rel, r.head, r.cur
			block := r.ids[r.head*r.width : (r.head+n)*r.width : (r.head+n)*r.width]
			r.head += n
			demanded += n
			if !r.concurrent {
				fl.err = probe(pctx, r.w, block, fl.rows)
				if err := land(fl); err != nil {
					return err
				}
				continue
			}
			r.inflight++
			outstanding++
			go func(ctx context.Context, block []sym.ID) {
				fl.err = probe(ctx, r.w, block, fl.rows)
				landed <- fl
			}(pctx, block)
		}
		return nil
	}

	for {
		// One sweep over the open cache nodes: what each can newly ask for
		// is queued and, as far as the strategy allows, sent.
		progress := false
		for _, c := range p.Caches {
			if c.IsConst || c.Group >= opened {
				continue
			}
			emitted, err := generate(c)
			if err == nil {
				err = dispatch(c.Rel)
			}
			if err != nil {
				return nil, err
			}
			progress = progress || emitted
		}
		if stop() {
			break
		}
		if outstanding > 0 {
			fl := await()
			rels[fl.rel].inflight--
			if err := land(fl); err != nil {
				return nil, err
			}
			continue
		}
		if progress {
			continue // what the sweep folded in may support more
		}
		// The open groups are at their fixpoint.
		if opened >= len(p.Groups) {
			break
		}
		span.End()
		if staged {
			pctx, span = obs.StartSpan(ctx, "group")
			span.SetAttr("group", opened)
			if opened > 0 && !opts.NoEarlyFailure {
				sat, err := st.subquerySatisfiable(p, opened)
				if err != nil {
					return nil, err
				}
				if !sat {
					span.SetAttr("early_empty", true)
					return k.finish(statsOf(paths), demanded, false, true), nil
				}
			}
			opened++
		} else {
			pctx, span = obs.StartSpan(ctx, "pipeline")
			opened = len(p.Groups)
		}
	}

	// Stopped short — by the limit or the context — when a group was never
	// opened or an access tuple that was generated was not probed.
	truncated := opened < len(p.Groups) || outstanding > 0 || unanswered
	for i := range rels {
		truncated = truncated || rels[i].head < rels[i].n
	}
	drain() // the access statistics are final once nothing is in flight
	if !streaming {
		if err := k.evaluate(p.QueryJoin, &sc.join, st.cdb, truncated); err != nil {
			return nil, err
		}
	}
	return k.finish(statsOf(paths), demanded, truncated, false), nil
}

// groupState holds the cache database and the bookkeeping of one execution
// of a plan. It lives in the run's scratch, as do its map and its slice, and
// keeps no pointer to the plan: a plan the façade binds to a query's
// constants (plan.Plan.Bind) for one run then stays on the façade's stack.
type groupState struct {
	sc *scratch // the run's recycled working memory; owned by the executor

	cdb   datalog.DB   // cache predicate relations
	enums []*enumState // per cache node (nil for constants): its input domains
}

// newGroupState sets an execution up: empty cache relations and input
// domains, then the query constants, interned under the run's hold h, whose
// caches seed the domains they feed once and for all.
func newGroupState(h sym.Hold, p *plan.Plan, sc *scratch) (*groupState, error) {
	if sc.cdb == nil {
		sc.cdb = make(datalog.DB)
	}
	if cap(sc.byNode) < len(p.Caches) {
		sc.byNode = make([]*enumState, len(p.Caches))
	}
	sc.st = groupState{sc: sc, cdb: sc.cdb, enums: sc.byNode[:len(p.Caches)]}
	st := &sc.st
	for _, c := range p.Caches {
		st.cdb[c.Pred] = sc.relation(c.Pred, c.Source.Rel.Arity())
		if !c.IsConst {
			st.enums[c.Index] = sc.enum(len(c.DomainPreds))
		}
	}
	for _, c := range p.Caches {
		if !c.IsConst {
			continue
		}
		if c.Slot >= len(p.Consts) {
			return nil, fmt.Errorf("exec: the plan of %s is bound to %d constants and needs slot %d", p.Query.Name, len(p.Consts), c.Slot)
		}
		// Query constants intern here — the last string boundary on the way
		// into an execution. They come from the plan's vector, never from
		// its structure: the plan may be shared by every query of a shape.
		n := len(sc.consts)
		sc.consts = append(sc.consts, h.Intern(p.Consts[c.Slot]))
		if _, err := st.ingest(c, []datalog.Tuple{sc.consts[n : n+1 : n+1]}); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// ingest folds one delta into cache c — the one way tuples enter the cache
// database — and returns the tuples that were new to it (valid until the
// next call). The delta is an extraction, or the extractions of a round trip
// that c asked for. The domains are maintained from it: every domain rule
// mentioning the cache predicate is joined with the new tuples at that body
// position and the full caches elsewhere, and the values derived go, unless
// already known, to the pool of the input position the domain binds. No rule
// is ever evaluated over tuples it has already seen.
func (st *groupState) ingest(c *plan.Cache, rows []datalog.Tuple) ([]datalog.Tuple, error) {
	if len(rows) == 0 {
		return nil, nil // most accesses of a selective plan extract nothing
	}
	crel := st.cdb[c.Pred]
	fresh := st.sc.fresh[:0]
	for _, row := range rows {
		if crel.Insert(row) {
			fresh = append(fresh, row)
		}
	}
	st.sc.fresh = fresh
	if len(fresh) == 0 {
		return nil, nil
	}
	for _, f := range c.Feeds {
		p := &st.enums[f.Cache].pos[f.Input]
		if err := f.Join.Run(&st.sc.join, st.cdb, fresh, func(head datalog.Tuple) { p.add(head[0]) }); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

// subquerySatisfiable runs the early non-emptiness test before populating
// group gi: the positive subquery restricted to the atoms whose caches
// belong to groups j < gi must have at least one satisfying assignment —
// one; the join stops at the first it finds.
func (st *groupState) subquerySatisfiable(p *plan.Plan, gi int) (bool, error) {
	test := p.GroupTests[gi]
	if test == nil {
		return true, nil
	}
	sat, err := test.Exists(&st.sc.join, st.cdb, nil)
	if err != nil {
		return false, fmt.Errorf("early test before group %d: %w", gi, err)
	}
	return sat, nil
}
