// Package cache provides the cross-query access cache of the Toorjah
// service layer. The paper's cost model is the number of accesses to
// limited-access sources; the executors already deduplicate accesses within
// one execution (per-relation meta-caches), but every new query re-probes
// the same wrappers from scratch. A Cache is shared across executions — and
// across concurrent clients of a long-running service like cmd/toorjahd —
// so that an access performed once is never performed again while its entry
// lives.
//
// The cache is keyed by the interned access (relation name plus packed
// input binding, source.AppendSymAccessKey) plus the data epoch of the
// source (source.EpochOf) and is safe for concurrent use:
//
//   - sharded: keys are hashed over independently locked shards, so
//     concurrent probes of different accesses do not contend;
//   - bounded: each shard keeps an LRU list and evicts the least recently
//     used entry when the configured capacity is exceeded;
//   - expiring: entries older than the TTL are dropped lazily on access
//     (remote sources change; a service must not serve stale extractions
//     forever);
//   - negative-caching: empty extractions are cached too — knowing that an
//     access returns nothing is exactly as valuable under the access cost
//     model — optionally with a shorter TTL;
//   - collapsing: concurrent probes of the same access are merged into a
//     single probe of the underlying source (singleflight, per key across
//     overlapping batches), which matters under the pipelined executor's
//     per-relation parallelism, parallel UCQ disjuncts and concurrent
//     service traffic — see the flight protocol on cachedSource.Probe;
//   - versioned: when a source reports a data epoch (source.Versioned —
//     live tables and federated peers do), entries are keyed by that epoch
//     too, so an execution pinned to one version of a relation never reads
//     or feeds entries of another. Mutating a relation therefore makes its
//     whole cached extraction set — negative entries included — unreachable
//     at once; Sweep additionally frees the stale entries eagerly, and a
//     rebind, which may restart the epochs, calls Invalidate.
//
// Use Wrap to layer the cache over any source.Wrapper (composable
// middleware, e.g. Cached(Counted(TableSource))). Per-relation
// hit/miss/eviction statistics are available
// through Snapshot and, rendered as a text table via internal/stats,
// through Summary.
//
// Errors are never cached: a failed probe is retried by the next access.
// Results handed out by the cache are shared slices and must not be
// mutated by callers (the same contract as storage.Table.Select).
package cache

import (
	"container/list"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"toorjah/internal/source"
	"toorjah/internal/stats"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// Options configures a Cache. The zero value gives a 65536-entry cache with
// 16 shards, no expiry, and negative caching on.
type Options struct {
	// Capacity bounds the total number of cached accesses across all
	// shards; the least recently used entries are evicted beyond it.
	// 0 means DefaultCapacity; negative means unbounded.
	Capacity int
	// Shards is the number of independently locked shards; 0 means
	// DefaultShards.
	Shards int
	// TTL expires entries that many nanoseconds after they were stored;
	// 0 means entries never expire.
	TTL time.Duration
	// NegativeTTL, when positive, overrides TTL for empty extractions, so
	// that "nothing there" can be re-checked sooner than positive results.
	NegativeTTL time.Duration
	// DisableNegative turns off caching of empty extractions entirely.
	DisableNegative bool

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

// entry is one cached extraction, stored interned: keys are packed symbol
// IDs and rows are IRows, so the cache's resident set carries no string
// payload and hashes in a handful of words per probe.
type entry struct {
	key     string
	rel     string
	rows    []storage.IRow
	expires time.Time // zero = never
	elem    *list.Element
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

// claim is one key's registration in a flight: all the keys of one batch
// share the flight, each with its own slot.
type claim struct {
	f    *flight
	slot int
}

// shard is one independently locked slice of the key space.
type shard struct {
	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recently used
	inflight map[string]claim
	stats    map[string]*RelStats
	capacity int // per-shard entry bound; 0 = unbounded
}

func (sh *shard) bump(rel string) *RelStats {
	st, ok := sh.stats[rel]
	if !ok {
		st = &RelStats{}
		sh.stats[rel] = st
	}
	return st
}

// removeLocked unlinks an entry; the shard lock must be held.
func (sh *shard) removeLocked(e *entry) {
	delete(sh.entries, e.key)
	sh.lru.Remove(e.elem)
}

// Cache is a sharded, bounded, expiring access cache shared across query
// executions. Create one with New; the zero value is not usable.
type Cache struct {
	opts   Options
	shards []*shard
	// gen is bumped by Invalidate/Clear before entries are removed; a
	// probe captures it when it starts and skips its store when it has
	// moved, so an extraction read from a source that was replaced
	// mid-probe cannot re-populate the cache after the invalidation.
	// (Distinct from data epochs, which version the entries of one
	// relation; gen guards the whole cache against rebind races.)
	gen atomic.Uint64
}

// New creates a cache with the given options.
func New(opts Options) *Cache {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.Capacity == 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	perShard := 0
	if opts.Capacity > 0 {
		perShard = (opts.Capacity + opts.Shards - 1) / opts.Shards
	}
	c := &Cache{opts: opts, shards: make([]*shard, opts.Shards)}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries:  make(map[string]*entry),
			lru:      list.New(),
			inflight: make(map[string]claim),
			stats:    make(map[string]*RelStats),
			capacity: perShard,
		}
	}
	return c
}

// shard picks the key's shard with an inline FNV-1a hash: this runs on
// every probe of every query, so it must not allocate.
func (c *Cache) shard(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// appendVersionedKey builds the storage key of one access at one data
// epoch: the packed integer access key, plus an epoch suffix for versioned
// sources. Unversioned sources (epoch 0) use the plain access key, so their
// entries behave exactly as before data versioning existed.
func appendVersionedKey(dst []byte, rel string, binding []sym.ID, epoch uint64) []byte {
	dst = source.AppendSymAccessKey(dst, rel, binding)
	if epoch != 0 {
		dst = append(dst, 0, '@')
		dst = strconv.AppendUint(dst, epoch, 16)
	}
	return dst
}

// hitLocked serves a lookup that found e (nil = absent): a live entry is
// touched in the LRU order and recorded as a hit, an expired one is dropped.
// The shard lock must be held.
func (sh *shard) hitLocked(e *entry, now time.Time) ([]storage.IRow, bool) {
	if e == nil {
		return nil, false
	}
	if e.expires.IsZero() || now.Before(e.expires) {
		sh.lru.MoveToFront(e.elem)
		sh.bump(e.rel).Hits++
		return e.rows, true
	}
	sh.removeLocked(e)
	sh.bump(e.rel).Expirations++
	return nil, false
}

// putLocked stores one extraction, applying TTL, negative-caching and LRU
// eviction. The shard lock must be held.
func (sh *shard) putLocked(opts *Options, rel, key string, rows []storage.IRow, now time.Time) {
	if len(rows) == 0 && opts.DisableNegative {
		return
	}
	ttl := opts.TTL
	if len(rows) == 0 && opts.NegativeTTL > 0 {
		ttl = opts.NegativeTTL
	}
	e := &entry{key: key, rel: rel, rows: rows}
	if ttl > 0 {
		e.expires = now.Add(ttl)
	}
	if old, present := sh.entries[key]; present {
		sh.removeLocked(old)
	}
	e.elem = sh.lru.PushFront(e)
	sh.entries[key] = e
	for sh.capacity > 0 && sh.lru.Len() > sh.capacity {
		oldest := sh.lru.Back().Value.(*entry)
		sh.removeLocked(oldest)
		sh.bump(oldest.rel).Evictions++
	}
}

// MultiGetSym looks up many interned bindings of one relation at one data
// epoch at once (epoch 0 = unversioned). Result i holds the cached
// extraction for bindings[i] and ok[i] reports whether it was present (and
// unexpired); hits are recorded and touched in the LRU order exactly as
// probed accesses are. Keys pack into one reused buffer, nothing
// materializes.
func (c *Cache) MultiGetSym(rel string, epoch uint64, bindings [][]sym.ID) (rows [][]storage.IRow, ok []bool) {
	rows = make([][]storage.IRow, len(bindings))
	ok = make([]bool, len(bindings))
	now := c.opts.now()
	var kb []byte
	for i, b := range bindings {
		kb = appendVersionedKey(kb[:0], rel, b, epoch)
		sh := c.shard(string(kb))
		sh.mu.Lock()
		rows[i], ok[i] = sh.hitLocked(sh.entries[string(kb)], now)
		sh.mu.Unlock()
	}
	return rows, ok
}

// MultiPutSym stores the extractions of many interned bindings of one
// relation at one data epoch (0 = unversioned), applying the same TTL,
// negative-caching and LRU-eviction rules as a probed store. It does not
// count misses: callers that probed a source account for that at the probe
// site.
func (c *Cache) MultiPutSym(rel string, epoch uint64, bindings [][]sym.ID, rows [][]storage.IRow) {
	now := c.opts.now()
	var kb []byte
	for i, b := range bindings {
		kb = appendVersionedKey(kb[:0], rel, b, epoch)
		sh := c.shard(string(kb))
		sh.mu.Lock()
		sh.putLocked(&c.opts, rel, string(kb), rows[i], now)
		sh.mu.Unlock()
	}
}

// Len returns the number of cached accesses.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Invalidate drops every cached access of one relation — every epoch,
// negative entries included — and returns the number of entries dropped.
// Call it after rebinding a relation's source. Probes in flight when
// Invalidate runs — of any relation: gen is the cache's — do not store their
// (possibly stale) extraction; an execution pinned to an older version may
// still store entries under its own (old) epoch afterwards, which no newer
// execution can read.
func (c *Cache) Invalidate(rel string) int {
	c.gen.Add(1)
	return c.Sweep(rel)
}

// Sweep frees every cached access of one relation and returns how many it
// dropped, leaving probes in flight alone: what they fetch is still stored.
// It is for entries that are already unreachable — a versioned relation's,
// once its epoch has advanced — where nothing stale can be stored any more
// and the only question is how long the old extractions, and the rows of old
// table versions they hold, stay resident. It walks every entry of every
// shard.
func (c *Cache) Sweep(rel string) int {
	dropped := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.rel == rel {
				sh.removeLocked(e)
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	return dropped
}

// Clear drops every cached access; statistics are preserved.
func (c *Cache) Clear() {
	c.gen.Add(1)
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.entries = make(map[string]*entry)
		sh.lru.Init()
		sh.mu.Unlock()
	}
}

// Snapshot returns the per-relation statistics, including the current
// entry counts.
func (c *Cache) Snapshot() map[string]RelStats {
	out := make(map[string]RelStats)
	for _, sh := range c.shards {
		sh.mu.Lock()
		for rel, st := range sh.stats {
			cur := out[rel]
			cur.Add(*st)
			out[rel] = cur
		}
		for _, e := range sh.entries {
			cur := out[e.rel]
			cur.Entries++
			out[e.rel] = cur
		}
		sh.mu.Unlock()
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

// Summary renders the per-relation statistics as an aligned text table
// (internal/stats), with a totals row.
func (c *Cache) Summary() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for rel := range snap {
		names = append(names, rel)
	}
	sort.Strings(names)
	var tb stats.Table
	tb.Header("relation", "hits", "misses", "hit%", "collapsed", "evictions", "expired", "entries")
	row := func(name string, st RelStats) {
		ratio := 0.0
		if st.Hits+st.Misses > 0 {
			ratio = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		tb.Rowf(name, st.Hits, st.Misses, stats.Pct(ratio), st.Collapsed, st.Evictions, st.Expirations, st.Entries)
	}
	for _, rel := range names {
		row(rel, snap[rel])
	}
	var total RelStats
	for _, st := range snap {
		total.Add(st)
	}
	row("TOTAL", total)
	return tb.String()
}
