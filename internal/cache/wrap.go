package cache

import (
	"context"

	"toorjah/internal/obs"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// cachedSource is a source.Wrapper whose accesses are served through a
// shared Cache, for the incarnation of its relation it was wrapped under.
type cachedSource struct {
	c     *Cache
	inner source.Wrapper
	rel   *relation
	inc   uint32
}

// Relation returns the wrapped relation schema.
func (s *cachedSource) Relation() *schema.Relation { return s.inner.Relation() }

// Epoch forwards the wrapped source's data epoch (0 when unversioned), so
// layered caches and the probe protocol see through the cache decorator.
func (s *cachedSource) Epoch() uint64 { return source.EpochOf(s.inner) }

// wait is one access of a batch that found its key already being fetched
// by another request's flight.
type wait struct {
	f    *flight
	slot int32
	idx  int // position in the batch
}

// Probe serves a batch of accesses through the cache. Every key is looked
// up once; in the same shard critical section a key that misses either
// joins the flight already fetching it or is registered in this request's
// own flight. The protocol is then: own misses first, then wait —
//
//  1. the owned misses travel to the inner wrapper as one batched round
//     trip and are published (stored, unregistered, the flight's done
//     channel closed) before this request waits on anything, so a request
//     never holds keys while it waits and no wait cycle can form;
//  2. foreign flights are awaited, honouring ctx;
//  3. a foreign flight that ended in error or panic delivers nothing — its
//     error belongs to the request that paid for it — and the accesses that
//     waited on it are probed afresh by this request.
//
// Each access is counted as it is classified: a hit, a miss (this request's
// round trip fetches it) or collapsed (another request's does), so
// hits + misses + collapsed is the number of accesses demanded; only an
// access orphaned by a failed flight is classified — and counted — again.
// Entries are filed under the inner source's data epoch captured before the
// probe: if the source advances mid-probe the extraction is stored under
// the pre-probe epoch and simply never serves the new version —
// conservative, never stale. When the context carries a trace, a
// "cache-lookup" span records how many of the requested accesses the cache
// absorbed.
//
// Hits, and what foreign flights deliver, go straight into the caller's
// slots. A flight's own extractions land in slots the cache allocates for
// it: the requests collapsed onto the flight read them after this one has
// returned and its caller has reused out. The misses travel as one block —
// the caller's own when every access missed, else gathered (gather).
func (s *cachedSource) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	rel := s.inner.Relation()
	if err := source.CheckSlots(rel, ids, out); err != nil {
		return err
	}
	c, w := s.c, len(rel.InputPositions())
	ctx, sp := obs.StartSpan(ctx, "cache-lookup")
	defer sp.End()
	if sp != nil { // boxing an attribute allocates, which an untraced probe must not
		sp.SetAttr("relation", rel.Name)
		sp.SetAttr("requested", len(out))
	}

	v := version{s.rel, s.inc, source.EpochOf(s.inner)}
	c.enter(v)
	now := c.now()
	var (
		own     *flight // this request's round trip, if it owns any miss
		ownIdx  []int
		foreign []wait
	)
	for i := range out {
		b := ids[i*w : i*w+w]
		h := sym.HashIDs(b)
		sh := c.shard(h)
		sh.mu.Lock()
		rs := sh.rel(v.r.n)
		if e, hit := sh.get(rs, v, h, b, now); hit {
			out[i] = e.rows
		} else if e != nil {
			rs.stats.Collapsed++
			foreign = append(foreign, wait{f: e.flight, slot: e.slot, idx: i})
		} else {
			if own == nil {
				own = &flight{done: make(chan struct{})}
			}
			rs.stats.Misses++
			if g := rs.generation(v, true); g != nil {
				sh.file(g, h, b, own, len(ownIdx))
			}
			ownIdx = append(ownIdx, i)
		}
		sh.mu.Unlock()
	}
	if sp != nil {
		sp.SetAttr("hits", len(out)-len(ownIdx)-len(foreign))
		sp.SetAttr("collapsed", len(foreign))
	}

	if own != nil {
		block := ids
		if len(ownIdx) < len(out) {
			block = gather(ids, w, ownIdx)
		}
		rows, err := c.fetch(ctx, s.inner, own, v, block, w, len(ownIdx))
		if err != nil {
			return err
		}
		for j, i := range ownIdx {
			out[i] = rows[j]
		}
	}

	var orphans []int // accesses whose foreign flight failed
	for _, w := range foreign {
		select {
		case <-w.f.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if w.f.rows == nil {
			orphans = append(orphans, w.idx)
			continue
		}
		out[w.idx] = w.f.rows[w.slot]
	}
	if len(orphans) > 0 {
		rows := make([][]storage.IRow, len(orphans))
		if err := s.Probe(ctx, gather(ids, w, orphans), rows); err != nil {
			return err
		}
		for j, i := range orphans {
			out[i] = rows[j]
		}
	}
	return nil
}

// gather copies the bindings of width w at the given batch positions of the
// block ids into a block of their own.
func gather(ids []sym.ID, w int, idx []int) []sym.ID {
	out := make([]sym.ID, 0, w*len(idx))
	for _, i := range idx {
		out = append(out, ids[i*w:i*w+w]...)
	}
	return out
}

// fetch is the cache's one call into an inner source: it probes the n keys
// of width w that flight f owns, the block ids, as a single round trip, into
// result slots it allocates for the flight (its waiters share them), and
// publishes the outcome — success, error and panic alike, so a panicking
// wrapper cannot wedge its keys: the claims are settled or dropped, waiters
// are released, and the panic propagates to the request that owns the
// flight. An extraction is stored where its claim still stands: not when the
// probe failed, and not when the claim's generation was freed meanwhile — by
// a newer epoch's first use, or by Invalidate: an extraction read from a
// source that was replaced mid-probe must not re-populate the cache. The TTL
// counts from when the extraction is stored, not from when the probe began —
// a slow source must not shorten its entry's life.
func (c *Cache) fetch(ctx context.Context, inner source.Wrapper, f *flight, v version, ids []sym.ID, w, n int) (rows [][]storage.IRow, err error) {
	delivered := false
	defer func() {
		now := c.now()
		for j := range n {
			b := ids[j*w : j*w+w]
			h := sym.HashIDs(b)
			sh := c.shard(h)
			sh.mu.Lock()
			if g := sh.rel(v.r.n).generation(v, false); g != nil {
				if _, i := sh.find(g, h, b); i >= 0 && sh.slab[i].flight == f {
					if delivered {
						sh.settle(c.opts.TTL, i, rows[j], now, false)
					} else {
						sh.drop(i)
					}
				}
			}
			sh.mu.Unlock()
		}
		if delivered {
			f.rows = rows
		}
		close(f.done)
	}()
	rows = make([][]storage.IRow, n)
	err = inner.Probe(ctx, ids, rows)
	delivered = err == nil
	return rows, err
}

// Wrap layers the cache over a wrapper. Decorators compose: one wrapped
// under the cache sees only the probes that actually reach the source. The
// cache is keyed by relation name: everything wrapped by one cache must bind
// the same logical sources to the same names. A wrapper is made for one
// binding of its relation: it holds the incarnation current when it was made
// (by a Pin view: at the Pin), and after an Invalidate or a Clear it still
// answers, from the source, and caches nothing — wrap again, as the engine
// does per execution and per /probe request. Wrap before reading which source is bound, and a rebind in
// between cannot file the old source's rows under the new incarnation.
func (c *Cache) Wrap(w source.Wrapper) source.Wrapper {
	r := c.relation(w.Relation().Name)
	inc := r.inc.Load()
	if c.pinned != nil {
		inc = c.pinned[r] // a relation first seen after the Pin was at its first, 0
	}
	return &cachedSource{c: c, inner: w, rel: r, inc: inc}
}
