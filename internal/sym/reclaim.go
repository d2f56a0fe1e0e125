package sym

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"weak"
)

// Reclamation is a grace-period mark and sweep of the ID space (after the
// grace periods of epoch-based reclamation, K. Fraser, "Practical
// lock-freedom", 2004, narrowed so that a sweep runs only inside one instead
// of deferring frees past it). Every engine path that keeps IDs outside a
// root takes a shared hold for as long as it keeps them; a sweep runs only
// while no hold is active, so it never meets an ID that is being filed into
// a table, re-interned or resolved by anyone who did not root or pin it.
// That removes three races a sweep beside executions would have: an ID filed
// into a table after the mark visited it, an ID re-interned between the mark
// and the free, and a value interned under a second ID while an in-flight
// join still compares the first.

// The hold state is one word: the active holds in the low 32 bits, and two
// flags above them.
const (
	holdMask = 1<<32 - 1
	sweeping = 1 << 32 // a sweep runs: every new hold waits for it
	draining = 1 << 33 // a sweep is overdue: new holds, but joined ones, wait for the active ones to end
)

// A sweep is due once the IDs issued since the last one exceed what it kept,
// or sweepFloor, whichever is more — amortized O(1) per issued ID. At
// drainFactor times that, new holds wait for the active ones to end, so a
// load whose holds overlap without a break still sweeps. A hold waits so at
// most drainWait: a hold that lasts — an execution whose callback blocks, a
// write batch inside an execution's callback, a peer that is slow to answer
// — postpones the sweep by another drainFactor times that, instead of
// stalling every new hold, or deadlocking one taken inside it.
const (
	sweepFloor  = 4096
	drainFactor = 4
	drainWait   = 50 * time.Millisecond
)

// reclaim is a table's reclamation state.
type reclaim struct {
	state   atomic.Uint64
	gateMu  sync.Mutex
	gate    chan struct{} // closed, and replaced, when a sweep ends or an overdue one is postponed
	waiting atomic.Int32  // holds waiting at the gate

	// since counts the IDs issued since the last sweep; at dueAt a sweep is
	// due, at drainAt it is overdue.
	since, dueAt, drainAt atomic.Int64

	rootMu sync.Mutex
	roots  []func(*Marks) bool // each marks its root's IDs (none for nil), or reports it collected
	pruned int                 // len(roots) after the last pruning

	// free holds the IDs sweeps freed, issued again before next moves; nfree
	// is its length, read without freeMu.
	freeMu sync.Mutex
	free   []ID
	nfree  atomic.Int32

	marks []uint64 // the last sweep's mark bits, reused
	stats struct{ sweeps, freed, reused, postponed atomic.Int64 }
}

func (t *Table) initReclaim() {
	t.gate = make(chan struct{})
	t.dueAt.Store(sweepFloor)
	t.drainAt.Store(drainFactor * sweepFloor)
}

// Hold is an active hold on a table: while it lasts no ID is freed, so the
// IDs interned or looked up through it — and every ID its holder reads out
// of a snapshot, a relation or a cache — stay valid. Taking and releasing
// one is an atomic counter step; it allocates nothing. A Hold interns
// without pinning: what it interned lives on only through a root or a pin.
type Hold struct{ t *Table }

// Hold takes a hold. It waits while a sweep runs, and while one is overdue
// until the active holds end and it has run — for at most drainWait, after
// which the sweep is postponed. A goroutine that already holds one joins it
// instead (Join, HoldFor), so as not to wait that long.
func (t *Table) Hold() Hold {
	t.acquire(true)
	return Hold{t}
}

// Join takes a hold that waits only while a sweep runs — never, when the
// caller is inside another hold. A path that always runs inside a hold and
// is not told so takes it: a remote decode.
func (t *Table) Join() Hold {
	t.acquire(false)
	return Hold{t}
}

// heldKey marks a context whose goroutine tree runs inside a hold.
type heldKey struct{}

// WithHold marks ctx as running inside a hold, so that HoldFor joins it.
func WithHold(ctx context.Context) context.Context {
	return context.WithValue(ctx, heldKey{}, true)
}

// HoldFor takes a hold for work under ctx: joined when ctx is marked by
// WithHold, else a hold of its own.
func (t *Table) HoldFor(ctx context.Context) Hold {
	if ctx.Value(heldKey{}) != nil {
		return t.Join()
	}
	return t.Hold()
}

func (t *Table) acquire(drain bool) {
	for {
		s := t.state.Load()
		switch {
		case s&sweeping == 0 && (!drain || s&draining == 0):
			if t.state.CompareAndSwap(s, s+1) {
				return
			}
		case s&(sweeping|holdMask) == 0:
			t.trySweep() // overdue and nothing active: run it here
		default:
			t.wait(drain)
		}
	}
}

// wait blocks until a sweep ends, or, while one is overdue, until nothing is
// active and it has run — or drainWait has passed, and it is postponed.
func (t *Table) wait(drain bool) {
	t.waiting.Add(1)
	defer t.waiting.Add(-1)
	t.gateMu.Lock()
	gate := t.gate
	t.gateMu.Unlock()
	// The gate is closed after the state changes, so a state read after the
	// gate was fetched that says "go" is final, and one that says "wait"
	// is followed by the gate's closing.
	s := t.state.Load()
	switch {
	case s&sweeping != 0:
		<-gate
	case drain && s&draining != 0 && s&holdMask != 0:
		timer := time.NewTimer(drainWait)
		defer timer.Stop()
		select {
		case <-gate:
		case <-timer.C:
			t.postpone()
		}
	}
}

// postpone lifts an overdue sweep's gate: the holds that kept it from
// running outlasted drainWait. It is overdue again once as many IDs again
// have been issued.
func (t *Table) postpone() {
	t.gateMu.Lock()
	defer t.gateMu.Unlock()
	if s := t.state.Load(); s&draining == 0 || s&sweeping != 0 {
		return // run, or postponed, meanwhile
	}
	t.drainAt.Store(t.since.Load() + drainFactor*t.dueAt.Load())
	t.state.And(^uint64(draining))
	t.stats.postponed.Add(1)
	t.openGate()
}

// openGate wakes every hold waiting at the gate; gateMu is held.
func (t *Table) openGate() {
	close(t.gate)
	t.gate = make(chan struct{})
}

// Release ends the hold. The release that leaves no hold active runs a
// sweep when one is due, on its own goroutine.
func (h Hold) Release() {
	t := h.t
	if s := t.state.Add(^uint64(0)); s&holdMask == 0 && (s&draining != 0 || t.since.Load() > t.dueAt.Load()) {
		t.trySweep()
	}
}

// Intern returns the ID of v, issuing one when v has none, without pinning
// it.
func (h Hold) Intern(v string) ID { return h.t.intern(v, false) }

// Lookup returns the ID of v without interning or pinning it; ok is false
// when v is not interned.
func (h Hold) Lookup(v string) (ID, bool) { return h.t.lookup(v, false) }

// issued counts one first-seen value; the one that makes a sweep overdue
// has new holds wait for it. Its shard's lock is held.
func (t *Table) issued() {
	if t.since.Add(1) >= t.drainAt.Load() && t.state.Load()&draining == 0 {
		t.state.Or(draining)
	}
}

// Sweep runs a sweep now if no hold is active or waiting, and reports
// whether it ran: a caller sweeping in a loop does not starve the holds.
func (t *Table) Sweep() bool { return t.waiting.Load() == 0 && t.trySweep() }

// Sweep sweeps the Default table now if no hold is active or waiting.
func Sweep() bool { return Default.Sweep() }

func (t *Table) trySweep() bool {
	for {
		s := t.state.Load()
		if s&(sweeping|holdMask) != 0 {
			return false
		}
		if t.state.CompareAndSwap(s, sweeping) {
			break
		}
	}
	t.sweep()
	t.state.Store(0)
	t.gateMu.Lock()
	t.openGate()
	t.gateMu.Unlock()
	return true
}

// sweep marks every ID a root holds and frees every ID neither marked nor
// pinned: its forward entry is deleted, its reverse slot cleared, and the
// ID goes on the free list. Every shard starts a new chunk, so a chunk lives
// only as long as the values written into it since the sweep before. The
// state says a sweep runs, so no hold is active; pinning interns may run
// beside it, serialized by the shard locks.
func (t *Table) sweep() {
	pages := *t.pages.Load()
	m := Marks{bits: t.marks[:0]}
	m.bits = append(m.bits, make([]uint64, len(pages)*pageSize/64)...)
	for _, mark := range t.liveRoots() {
		mark(&m)
	}
	var freed []ID
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		kept := 0
		for _, s := range sh.ids.slots {
			if s.ref != 0 && (m.has(ID(s.ref-1)) || t.pinned(ID(s.ref-1))) {
				kept++
			}
		}
		if kept < sh.ids.used {
			var ids RefTable
			ids.Grow(kept)
			from := len(freed)
			for _, s := range sh.ids.slots {
				switch id := ID(s.ref - 1); {
				case s.ref == 0:
				case m.has(id) || t.pinned(id):
					ids.place(s)
					ids.used++
				default:
					pages[uint32(id)/pageSize].vals[uint32(id)%pageSize].Store(nil)
					freed = append(freed, id)
				}
			}
			sh.ids = ids
			t.freeMu.Lock()
			t.free = append(t.free, freed[from:]...)
			t.nfree.Store(int32(len(t.free)))
			t.freeMu.Unlock()
		}
		sh.chunk = strings.Builder{}
		sh.mu.Unlock()
	}
	t.marks = m.bits
	kept := int64(t.Len())
	t.since.Store(0)
	t.dueAt.Store(max(kept, sweepFloor))
	t.drainAt.Store(drainFactor * max(kept, sweepFloor))
	t.stats.sweeps.Add(1)
	t.stats.freed.Add(int64(len(freed)))
}

// Marks is the set of IDs a sweep keeps: roots add theirs.
type Marks struct{ bits []uint64 }

// Add marks ids.
func (m *Marks) Add(ids []ID) {
	for _, id := range ids {
		if w := int(id / 64); w < len(m.bits) {
			m.bits[w] |= 1 << (id % 64)
		}
	}
}

func (m *Marks) has(id ID) bool {
	w := int(id / 64)
	return w < len(m.bits) && m.bits[w]>>(id%64)&1 != 0
}

// Root is what holds IDs outside any hold: a table's rows, an access
// cache's entries, a result's answers. MarkIDs adds every ID it holds; it
// runs while no hold is active.
type Root interface{ MarkIDs(m *Marks) }

// AddRoot registers r with t through a weak pointer: r is a root while it
// is reachable, and once the GC has collected it, it holds nothing.
func AddRoot[T any, P interface {
	*T
	Root
}](t *Table, r P) {
	w := weak.Make((*T)(r))
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	if len(t.roots) >= 2*t.pruned+64 {
		t.pruneLocked()
	}
	t.roots = append(t.roots, func(m *Marks) bool {
		r := w.Value()
		if r != nil && m != nil {
			P(r).MarkIDs(m)
		}
		return r != nil
	})
}

// liveRoots drops the roots the GC has collected and returns a copy of the
// rest, which roots registered meanwhile do not disturb.
func (t *Table) liveRoots() []func(*Marks) bool {
	t.rootMu.Lock()
	defer t.rootMu.Unlock()
	t.pruneLocked()
	return slices.Clone(t.roots)
}

// pruneLocked drops the roots the GC has collected; rootMu is held.
func (t *Table) pruneLocked() {
	t.roots = slices.DeleteFunc(t.roots, func(mark func(*Marks) bool) bool { return !mark(nil) })
	t.pruned = len(t.roots)
}

// Stats is what reclamation has done in a table's life.
type Stats struct {
	Sweeps    int64 // sweeps run
	Freed     int64 // IDs freed
	Reused    int64 // freed IDs issued again
	Postponed int64 // overdue sweeps postponed, their holds outlasting drainWait
}

// Stats returns the table's reclamation counters.
func (t *Table) Stats() Stats {
	return Stats{Sweeps: t.stats.sweeps.Load(), Freed: t.stats.freed.Load(), Reused: t.stats.reused.Load(),
		Postponed: t.stats.postponed.Load()}
}
