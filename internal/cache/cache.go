// Package cache provides the cross-query access cache of the Toorjah
// service layer. The paper's cost model is the number of accesses to
// limited-access sources; the executors already deduplicate accesses within
// one execution (per-relation meta-caches), but every new query re-probes
// the same wrappers from scratch. A Cache is shared across executions — and
// across concurrent clients of a long-running service like cmd/toorjahd —
// so that an access performed once is never performed again while its entry
// lives.
//
// An entry is one interned access — a relation, an input binding, the data
// epoch of the source (source.EpochOf) — and the cache is safe for concurrent
// use:
//
//   - sharded: a binding's hash (sym.HashIDs) picks one of the independently
//     locked shards, so concurrent probes of different accesses do not
//     contend; a shard is one slab of entries, recycled through a free list;
//   - bounded: each shard keeps its entries in LRU order (links inside the
//     entry) and evicts the least recently used one when the configured
//     capacity is exceeded;
//   - expiring: entries older than the TTL are dropped lazily on access
//     (remote sources change; a service must not serve stale extractions
//     forever);
//   - negative-caching: empty extractions are cached too — knowing that an
//     access returns nothing is exactly as valuable under the access cost
//     model — under the same TTL;
//   - collapsing: concurrent probes of the same access are merged into a
//     single probe of the underlying source (singleflight, per key across
//     overlapping batches), which matters under the pipelined executor's
//     per-relation parallelism, parallel UCQ disjuncts and concurrent
//     service traffic — see the flight protocol on cachedSource.Probe.
//
// Which entries may be served or stored is one rule, stated by the structure:
// no key is built, stored or compared. The cache numbers relations on first
// sight, and a shard files each relation's accesses in generations — one per
// epoch the relation was used at (0 = unversioned), each a sym.RefTable of
// references into the slab. A lookup or a store at (relation, epoch) reaches
// that generation and no other, so an execution pinned to one version of a
// relation never reads or feeds entries of another, and mutating a relation
// makes its whole cached extraction set — negative entries included —
// unreachable at once. The first use of an epoch newer than any the relation
// has been used at frees its older generations (Cache.enter): nothing is
// called after a write, and nothing ever walks the cache. A rebind, which may
// restart the epochs, calls Invalidate: the relation starts a new incarnation,
// and what belongs to the old one — a wrapper, a flight — stores into nothing.
//
// Use Wrap to layer the cache over any source.Wrapper (composable
// middleware). Per-relation
// hit/miss/eviction statistics are available through Snapshot.
//
// A cache is a root of the symbol table (sym.AddRoot): the IDs of its
// entries' bindings and rows are never freed while the cache is reachable.
//
// Errors are never cached: a failed probe is retried by the next access.
// Results handed out by the cache are shared slices and must not be
// mutated by callers (the same contract as storage.Table.Select).
package cache

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// Options configures a Cache. The zero value gives a 65536-entry cache with
// 16 shards and no expiry.
type Options struct {
	// Capacity bounds the total number of cached accesses across all
	// shards; the least recently used entries are evicted beyond it.
	// 0 or less means DefaultCapacity.
	Capacity int
	// TTL expires entries — empty extractions too — that many nanoseconds
	// after they were stored; 0 means entries never expire.
	TTL time.Duration

	// shards is a test hook for the number of independently locked
	// shards; 0 means DefaultShards.
	shards int
	// now is a test hook for the clock; nil means time.Now.
	now func() time.Time
}

// Default capacity and shard count of the zero Options value.
const (
	DefaultCapacity = 65536
	DefaultShards   = 16
)

// RelStats is the per-relation accounting of one cache.
type RelStats struct {
	Hits        int64 `json:"hits"`        // accesses served from the cache
	Misses      int64 `json:"misses"`      // accesses that probed the source
	Collapsed   int64 `json:"collapsed"`   // accesses merged into an in-flight probe
	Evictions   int64 `json:"evictions"`   // entries dropped by the LRU bound
	Expirations int64 `json:"expirations"` // entries dropped by TTL
	Entries     int64 `json:"entries"`     // entries currently cached (Snapshot only)
}

// Add accumulates another relation's counters into s.
func (s *RelStats) Add(o RelStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Collapsed += o.Collapsed
	s.Evictions += o.Evictions
	s.Expirations += o.Expirations
	s.Entries += o.Entries
}

// entry is one access in a shard's slab, stored interned: the binding's IDs,
// the extraction's IRows, no string. It is resident — an extraction, in the
// LRU order — or a claim: some flight's round trip is fetching it. It knows
// its generation, and so neither its relation's name nor its epoch.
type entry struct {
	ids        []sym.ID // the binding; the backing array is recycled with the entry
	rows       []storage.IRow
	expires    int64 // Unix nanoseconds; 0 = never
	filed      *generation
	flight     *flight // the round trip fetching a claim; nil once resident
	slot       int32   // a claim's position in flight.rows
	pos        int32   // position in filed.members
	prev, next int32   // LRU neighbours of a resident entry; next also chains the free list
}

// flight is one request's in-progress round trip for the missed keys it
// owns. Requests that miss on a key somebody else is already fetching wait
// on done and read that key's slot.
type flight struct {
	done chan struct{}
	// rows holds the extraction of every owned key, in registration order.
	// It is written once, before done closes; nil means the round trip
	// failed (error or panic) and waiters must probe for themselves.
	rows [][]storage.IRow
}

// relation is a relation name, numbered on first sight, and the one fence of
// its entries: the incarnation (Invalidate and Clear start the next one) and
// the newest epoch used in it.
type relation struct {
	n      int        // index of the relation's state in every shard
	mu     sync.Mutex // one walk over the shards at a time: Invalidate's, enter's
	inc    atomic.Uint32
	newest atomic.Uint64
}

// version is where a lookup or a store goes: one incarnation of one relation
// at one data epoch (0 = unversioned).
type version struct {
	r     *relation
	inc   uint32
	epoch uint64
}

// generation files the accesses of one version that fell into one shard: a
// reference table over the shard's slab, a candidate compared against the IDs
// its entry keeps, claims beside resident entries. It exists while it has
// members and is freed whole, through members, not by looking for them.
type generation struct {
	version
	table   sym.RefTable
	members []int32 // slab indexes, in no order; entry.pos points back
}

// relShard is one relation's state in one shard: its counters and its
// generations — the current epoch's and what stragglers pinned to older ones
// added since.
type relShard struct {
	stats RelStats
	gens  []*generation
}

// generation finds v's generation — nil for an incarnation that was
// invalidated, which reads and stores nothing, and, unless create is set, for
// a version nothing is filed under. The incarnation is checked under the shard
// lock: Invalidate starts the next one before it takes that lock to free this
// shard's generations, so whatever a store of the old one files, it frees.
func (rs *relShard) generation(v version, create bool) *generation {
	if v.r.inc.Load() != v.inc {
		return nil
	}
	for _, g := range rs.gens {
		if g.version == v {
			return g
		}
	}
	if !create {
		return nil
	}
	g := &generation{version: v}
	rs.gens = append(rs.gens, g)
	return g
}

// shard is one lock, capacity and LRU domain: the accesses whose binding
// hashes to it, of every relation. slab[0] is no entry but the anchor of the
// LRU ring: its next is the most recently used resident entry, its prev the
// least, and index 0 ends the free list.
type shard struct {
	mu       sync.Mutex
	slab     []entry
	free     int32 // head of the free list
	resident int
	capacity int        // bound on resident
	rels     []relShard // by relation number, grown on demand
}

func (sh *shard) rel(n int) *relShard {
	for len(sh.rels) <= n {
		sh.rels = append(sh.rels, relShard{})
	}
	return &sh.rels[n]
}

// find walks the references g files under hash h to the entry of binding: its
// slot in the table and its index in the slab, −1 when there is none.
func (sh *shard) find(g *generation, h uint32, binding []sym.ID) (at int, i int32) {
	for at, i = g.table.First(h); i >= 0; at, i = g.table.Next(at, h) {
		if slices.Equal(sh.slab[i].ids, binding) {
			break
		}
	}
	return at, i
}

// file adds an entry for binding to g — a claim of flight f, or with a nil f
// an entry settle is about to make resident — and returns its index.
func (sh *shard) file(g *generation, h uint32, binding []sym.ID, f *flight, slot int) int32 {
	i := sh.free
	if i != 0 {
		sh.free = sh.slab[i].next
	} else {
		i = int32(len(sh.slab))
		sh.slab = append(sh.slab, entry{})
	}
	e := &sh.slab[i]
	e.ids = append(e.ids[:0], binding...)
	e.filed, e.flight, e.slot, e.pos = g, f, int32(slot), int32(len(g.members))
	g.members = append(g.members, i)
	g.table.Add(h, i)
	return i
}

// unlink takes a resident entry out of the LRU ring.
func (sh *shard) unlink(e *entry) {
	sh.slab[e.prev].next, sh.slab[e.next].prev = e.next, e.prev
}

// front makes entry i the most recently used; linked says whether it is in
// the ring already.
func (sh *shard) front(i int32, linked bool) {
	e, anchor := &sh.slab[i], &sh.slab[0]
	if linked {
		sh.unlink(e)
	}
	e.prev, e.next = 0, anchor.next
	sh.slab[anchor.next].prev, anchor.next = i, i
}

// drop unfiles entry i from its generation — an eviction, an expiry, a claim
// whose fetch delivered nothing to keep, a generation being freed — and
// returns it to the free list. A generation left without members goes too.
func (sh *shard) drop(i int32) {
	e := &sh.slab[i]
	g, h := e.filed, sym.HashIDs(e.ids)
	at, ref := g.table.First(h)
	for ref != i {
		at, ref = g.table.Next(at, h)
	}
	g.table.Delete(at)
	last := len(g.members) - 1
	moved := g.members[last]
	g.members[e.pos], sh.slab[moved].pos = moved, e.pos
	g.members = g.members[:last]
	rs := &sh.rels[g.r.n]
	if last == 0 {
		rs.gens = slices.DeleteFunc(rs.gens, func(o *generation) bool { return o == g })
	}
	if e.flight == nil {
		sh.unlink(e)
		sh.resident--
		rs.stats.Entries--
	}
	e.rows, e.filed, e.flight = nil, nil, nil
	e.next, sh.free = sh.free, i
}

// get serves one lookup at v, under the shard lock: a live resident entry is
// a hit, recorded and touched in the LRU order; an expired one is dropped and
// counted. Failing both it returns the claim in flight for the binding, if
// there is one.
func (sh *shard) get(rs *relShard, v version, h uint32, binding []sym.ID, now int64) (e *entry, hit bool) {
	g := rs.generation(v, false)
	if g == nil {
		return nil, false
	}
	_, i := sh.find(g, h, binding)
	if i < 0 {
		return nil, false
	}
	switch e = &sh.slab[i]; {
	case e.flight != nil:
		return e, false
	case e.expires != 0 && now >= e.expires:
		rs.stats.Expirations++
		sh.drop(i)
		return nil, false
	}
	sh.front(i, true)
	rs.stats.Hits++
	return e, true
}

// settle makes entry i — resident already (linked), or a claim, or just filed
// — the resident, most recently used extraction of its binding, applying the
// TTL and the LRU bound.
func (sh *shard) settle(ttl time.Duration, i int32, rows []storage.IRow, now int64, linked bool) {
	e := &sh.slab[i]
	e.rows, e.flight, e.expires = rows, nil, 0
	if ttl > 0 {
		e.expires = now + int64(ttl)
	}
	sh.front(i, linked)
	if !linked {
		sh.resident++
		sh.rels[e.filed.r.n].stats.Entries++
	}
	for sh.resident > sh.capacity {
		lru := sh.slab[0].prev
		sh.rels[sh.slab[lru].filed.r.n].stats.Evictions++
		sh.drop(lru)
	}
}

// Cache is a sharded, bounded, expiring access cache shared across query
// executions. Create one with New; the zero value is not usable.
type Cache struct {
	*state
	// pinned is, in a view Pin made, each relation's incarnation at the
	// Pin; nil in the cache New made.
	pinned map[*relation]uint32
}

// state is everything a cache and its pinned views share.
type state struct {
	opts   Options
	shards []*shard

	mu   sync.RWMutex
	rels map[string]*relation // the one string-keyed map: a name is resolved once per call
}

// New creates a cache with the given options. The shard bounds sum to
// Capacity exactly: of s shards, the first Capacity % s hold one entry more
// than the rest, and a Capacity below s gets one shard per entry.
func New(opts Options) *Cache {
	if opts.shards <= 0 {
		opts.shards = DefaultShards
	}
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	opts.shards = min(opts.shards, opts.Capacity)
	if opts.now == nil {
		opts.now = time.Now
	}
	c := &Cache{state: &state{opts: opts, shards: make([]*shard, opts.shards), rels: make(map[string]*relation)}}
	for i := range c.shards {
		capacity := opts.Capacity / opts.shards
		if i < opts.Capacity%opts.shards {
			capacity++
		}
		c.shards[i] = &shard{slab: make([]entry, 1), capacity: capacity}
	}
	sym.AddRoot(sym.Default, c.state)
	return c
}

// MarkIDs marks the IDs of every entry's binding and rows: a sweep keeps
// them.
func (st *state) MarkIDs(m *sym.Marks) {
	for _, sh := range st.shards {
		sh.mu.Lock()
		for i := range sh.slab {
			if e := &sh.slab[i]; e.filed != nil {
				m.Add(e.ids)
				for _, r := range e.rows {
					m.Add(r)
				}
			}
		}
		sh.mu.Unlock()
	}
}

// relation resolves a name to its number, numbering it on first sight.
func (c *Cache) relation(name string) *relation {
	c.mu.RLock()
	r := c.rels[name]
	c.mu.RUnlock()
	if r != nil {
		return r
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r = c.rels[name]; r == nil {
		r = &relation{n: len(c.rels)}
		c.rels[name] = r
	}
	return r
}

// shard picks a binding's shard from the hash that also addresses it in the
// generation's table (which indexes by the top bits; this takes the rest).
func (c *Cache) shard(h uint32) *shard { return c.shards[h%uint32(len(c.shards))] }

// now is the clock in Unix nanoseconds, read only when something can expire.
func (c *Cache) now() int64 {
	if c.opts.TTL <= 0 {
		return 0
	}
	return c.opts.now().UnixNano()
}

// enter precedes the lookups and stores of one call at v: the first use of an
// epoch newer than any its relation has been used at frees the relation's
// older generations, in every shard, at a cost proportional to what it frees.
// A straggler pinned to an older epoch still reads and stores its own rows, in
// a generation the next newer epoch frees in turn.
func (c *Cache) enter(v version) {
	if v.epoch <= v.r.newest.Load() || v.r.inc.Load() != v.inc {
		return
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	if v.epoch > v.r.newest.Load() && v.r.inc.Load() == v.inc {
		v.r.newest.Store(v.epoch)
		c.freeBelow(v)
	}
}

// freeBelow frees, in every shard, the generations of v's relation that are
// not of v's incarnation or are of an older epoch, and returns the number of
// resident entries dropped. v.r.mu must be held.
func (c *Cache) freeBelow(v version) (dropped int) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		dropped += sh.resident
		rs := sh.rel(v.r.n)
		for k := 0; k < len(rs.gens); {
			g := rs.gens[k]
			if g.inc == v.inc && g.epoch >= v.epoch {
				k++
				continue
			}
			for len(g.members) > 0 { // the last drop takes g out of rs.gens
				sh.drop(g.members[0])
			}
		}
		dropped -= sh.resident
		sh.mu.Unlock()
	}
	return dropped
}

// MultiGetSym looks up many interned bindings of one relation at one data
// epoch at once (epoch 0 = unversioned). Result i holds the cached
// extraction for bindings[i] and ok[i] reports whether it was present (and
// unexpired); hits are recorded and touched in the LRU order exactly as
// probed accesses are. Nothing is built to look a binding up: its IDs are
// hashed and compared as they stand.
func (c *Cache) MultiGetSym(rel string, epoch uint64, bindings [][]sym.ID) (rows [][]storage.IRow, ok []bool) {
	rows = make([][]storage.IRow, len(bindings))
	ok = make([]bool, len(bindings))
	r := c.relation(rel)
	v := version{r, r.inc.Load(), epoch}
	c.enter(v)
	now := c.now()
	for i, b := range bindings {
		h := sym.HashIDs(b)
		sh := c.shard(h)
		sh.mu.Lock()
		if e, hit := sh.get(sh.rel(r.n), v, h, b, now); hit {
			rows[i], ok[i] = e.rows, true
		}
		sh.mu.Unlock()
	}
	return rows, ok
}

// MultiPutSym stores the extractions of many interned bindings of one
// relation at one data epoch (0 = unversioned), applying the same TTL and
// LRU-eviction rules as a probed store. It does not count misses: callers
// that probed a source account for that at the probe site.
func (c *Cache) MultiPutSym(rel string, epoch uint64, bindings [][]sym.ID, rows [][]storage.IRow) {
	r := c.relation(rel)
	v := version{r, r.inc.Load(), epoch}
	c.enter(v)
	now := c.now()
	for i, b := range bindings {
		h := sym.HashIDs(b)
		sh := c.shard(h)
		sh.mu.Lock()
		if g := sh.rel(r.n).generation(v, true); g != nil {
			_, at := sh.find(g, h, b)
			linked := at >= 0 && sh.slab[at].flight == nil
			if at < 0 {
				at = sh.file(g, h, b, nil, 0)
			}
			sh.settle(c.opts.TTL, at, rows[i], now, linked)
		}
		sh.mu.Unlock()
	}
}

// Len returns the number of cached accesses.
func (c *Cache) Len() int { return int(c.Totals().Entries) }

// Invalidate starts a new incarnation of one relation — what a rebind of its
// source calls for — and returns the number of entries dropped: every
// generation of it is freed, negative entries included, and whatever still
// belongs to the old incarnation — a wrapper made before (Wrap), a flight
// fetching for one — reads and stores nothing from here on. No other
// relation's entries, wrappers or flights notice.
func (c *Cache) Invalidate(rel string) int { return c.invalidate(c.relation(rel)) }

func (c *Cache) invalidate(r *relation) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.newest.Store(0) // a new source may count its epochs from the start
	return c.freeBelow(version{r: r, inc: r.inc.Add(1)})
}

// Pin returns a view of the cache whose wrappers (Wrap) take each
// relation's incarnation as it is now, not as it is when they are made;
// everything else is the cache's own. A caller that pins its sources after
// the cache — a union pins one data version for all its disjuncts, which
// wrap later — thereby keeps the rule Wrap states: a rebind after the Pin
// leaves those wrappers an invalidated incarnation, and they cache nothing.
func (c *Cache) Pin() *Cache {
	c.mu.RLock()
	defer c.mu.RUnlock()
	pinned := make(map[*relation]uint32, len(c.rels))
	for _, r := range c.rels {
		pinned[r] = r.inc.Load()
	}
	return &Cache{state: c.state, pinned: pinned}
}

// Clear invalidates every relation; statistics are preserved.
func (c *Cache) Clear() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, r := range c.rels {
		c.invalidate(r)
	}
}

// Snapshot returns the per-relation statistics, including the current
// entry counts — maintained where entries come and go, so reading them
// costs relations × shards whatever the cache holds.
func (c *Cache) Snapshot() map[string]RelStats {
	c.mu.RLock() // no relation is numbered meanwhile: every shard's rels fit sums
	defer c.mu.RUnlock()
	sums := make([]RelStats, len(c.rels))
	for _, sh := range c.shards {
		sh.mu.Lock()
		for n := range sh.rels {
			sums[n].Add(sh.rels[n].stats)
		}
		sh.mu.Unlock()
	}
	out := make(map[string]RelStats)
	for name, r := range c.rels {
		if sums[r.n] != (RelStats{}) { // numbered, never looked up or stored
			out[name] = sums[r.n]
		}
	}
	return out
}

// Totals sums the per-relation statistics.
func (c *Cache) Totals() RelStats {
	var t RelStats
	for _, st := range c.Snapshot() {
		t.Add(st)
	}
	return t
}
