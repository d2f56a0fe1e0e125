// Package sym provides the process-wide value interning of the engine: an
// append-only, concurrency-safe symbol table mapping every data value to a
// dense uint32 ID. The paper's cost model is the number of accesses — but a
// long-running service spends its *wall clock* on string plumbing: joining
// values into NUL-separated map keys, hashing variable-length strings on
// every probe, and dragging pointer-dense []string tuples through the GC.
// Interning every value once — at ingest, CSV load, query-constant parse and
// remote-decode time — lets the whole engine below those boundaries run on
// integer tuples, and strings materialize again only at the result/NDJSON
// boundary.
//
// The package also says how ID tuples are looked up, in two forms. RefTable
// is the engine's one ID-keyed hash table: storage's row set and indexes,
// datalog's cache relations, the cross-query cache's generations and the
// executors' meta-caches hash the IDs as they stand (HashIDs) into a table
// of references to tuples they already store, and build no key at all.
// AppendKey/Key pack IDs into a string for the callers that key a Go map at
// a boundary — a finished result's answer set, tests.
//
// IDs are stable for the life of the process: the table is append-only (an
// interned value is never removed or renumbered), so IDs — and every hash or
// key made from them — survive table snapshots, compactions and data epochs.
// That epoch-stability is what lets the cross-query cache keep serving
// entries filed by IDs while relations advance underneath it.
//
// The zero ID is never issued; it is reserved as "no value" so packed keys
// and sentinel slots stay unambiguous.
package sym

import (
	"math"
	"sync"
	"sync/atomic"
)

// ID is an interned value: a dense handle into the symbol table. IDs start
// at 1; 0 is reserved and never issued.
type ID uint32

// shardCount must be a power of two; 64 shards keep concurrent interning
// from remote decodes and parallel ingests from contending.
const shardCount = 64

// Table is an append-only, concurrency-safe symbol table. The zero value is
// not usable; use NewTable (or the package-level Default table, which the
// storage, cache and executor layers share — one process, one ID space).
type Table struct {
	// next is the next ID to issue; IDs are dense and start at 1.
	next atomic.Uint32

	// shards hold the forward map (value -> ID), sharded by value hash so
	// concurrent interning scales.
	shards [shardCount]shard

	// strs is the reverse map (ID -> value), grown in fixed-size pages that
	// are published once and never moved, so Str reads are lock-free: a
	// page pointer is written exactly once (under its shard-independent
	// pageMu) and the ID's slot is written before the forward map publishes
	// the ID.
	pages  atomic.Pointer[[]*page]
	pageMu sync.Mutex
}

type shard struct {
	mu sync.RWMutex
	m  map[string]ID
}

// pageSize is the number of symbols per reverse-lookup page (power of two).
const pageSize = 1 << 12

type page [pageSize]atomic.Pointer[string]

// NewTable creates an empty symbol table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].m = make(map[string]ID)
	}
	empty := make([]*page, 0)
	t.pages.Store(&empty)
	return t
}

// Default is the process-wide symbol table: storage tables, the cross-query
// cache and the executors all intern through it, so an ID means the same
// value everywhere in the process.
var Default = NewTable()

// hash is FNV-1a; inlined so the intern fast path does not allocate.
func hash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Intern returns the ID of v, issuing a fresh one the first time v is seen.
// Safe for concurrent use; the common case (already interned) is one shard
// read-lock and one map hit. A table that has issued all 2³²−1 IDs panics
// on the next first-seen value: exhaustion is a hard failure, never a
// reused ID.
func (t *Table) Intern(v string) ID {
	sh := &t.shards[hash(v)&(shardCount-1)]
	sh.mu.RLock()
	id, ok := sh.m[v]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok = sh.m[v]; ok {
		return id
	}
	id = t.issue()
	t.store(id, v)
	// The reverse slot is visible before the forward map publishes the ID,
	// so any goroutine that can observe the ID can resolve it.
	sh.m[v] = id
	return id
}

// issue hands out the next dense ID. The counter stops at the last ID: a
// plain Add would wrap to 0 and then re-issue 1, 2, … for new values, so
// every key packed from IDs would silently alias. Values already interned
// keep resolving after exhaustion; only first-seen values panic.
func (t *Table) issue() ID {
	for {
		cur := t.next.Load()
		if cur == math.MaxUint32 {
			panic("sym: symbol table exhausted: all 2^32-1 IDs are issued")
		}
		if t.next.CompareAndSwap(cur, cur+1) {
			return ID(cur + 1)
		}
	}
}

// store writes the reverse-lookup slot for a freshly issued ID, growing the
// page directory when the ID lands past it.
func (t *Table) store(id ID, v string) {
	pi := int(uint32(id) / pageSize)
	for {
		pages := *t.pages.Load()
		if pi < len(pages) {
			pages[pi][uint32(id)%pageSize].Store(&v)
			return
		}
		t.pageMu.Lock()
		pages = *t.pages.Load()
		if pi >= len(pages) {
			grown := make([]*page, len(pages), pi+1)
			copy(grown, pages)
			for len(grown) <= pi {
				grown = append(grown, new(page))
			}
			t.pages.Store(&grown)
		}
		t.pageMu.Unlock()
	}
}

// Lookup returns the ID of v without interning it; ok is false when v has
// never been interned. Read paths (probes of values that may not exist in
// any relation) use Lookup so that queries for absent values cannot grow
// the table.
func (t *Table) Lookup(v string) (ID, bool) {
	sh := &t.shards[hash(v)&(shardCount-1)]
	sh.mu.RLock()
	id, ok := sh.m[v]
	sh.mu.RUnlock()
	return id, ok
}

// Str returns the value of an interned ID. Lock-free: one atomic page-
// directory load and one atomic slot load. IDs never issued (or 0) return
// the empty string.
func (t *Table) Str(id ID) string {
	if id == 0 {
		return ""
	}
	pages := *t.pages.Load()
	pi := int(uint32(id) / pageSize)
	if pi >= len(pages) {
		return ""
	}
	p := pages[pi][uint32(id)%pageSize].Load()
	if p == nil {
		return ""
	}
	return *p
}

// Len returns the number of interned symbols.
func (t *Table) Len() int { return int(t.next.Load()) }

// InternAll interns every value of a row and returns the ID tuple.
func (t *Table) InternAll(vals []string) []ID {
	out := make([]ID, len(vals))
	for i, v := range vals {
		out[i] = t.Intern(v)
	}
	return out
}

// LookupAll resolves every value of a row without interning; ok is false —
// and the returned slice nil — when any value has never been interned
// (such a row cannot match anything stored anywhere in the process).
func (t *Table) LookupAll(vals []string) ([]ID, bool) {
	out := make([]ID, len(vals))
	for i, v := range vals {
		id, ok := t.Lookup(v)
		if !ok {
			return nil, false
		}
		out[i] = id
	}
	return out, true
}

// StrsAppend materializes ids into dst (reusing its capacity) and returns
// it; the boundary layers use it to render answer tuples without a fresh
// allocation per row.
func (t *Table) StrsAppend(dst []string, ids []ID) []string {
	if cap(dst) < len(ids) {
		dst = make([]string, len(ids))
	}
	dst = dst[:len(ids)]
	for i, id := range ids {
		dst[i] = t.Str(id)
	}
	return dst
}

// Strs materializes an ID tuple back into strings.
func (t *Table) Strs(ids []ID) []string {
	return t.StrsAppend(make([]string, len(ids)), ids)
}

// Package-level conveniences over the Default table.

// Intern interns v in the Default table.
func Intern(v string) ID { return Default.Intern(v) }

// Lookup resolves v in the Default table without interning.
func Lookup(v string) (ID, bool) { return Default.Lookup(v) }

// Str resolves an ID in the Default table.
func Str(id ID) string { return Default.Str(id) }

// InternAll interns a row in the Default table.
func InternAll(vals []string) []ID { return Default.InternAll(vals) }

// LookupAll resolves a row in the Default table without interning.
func LookupAll(vals []string) ([]ID, bool) { return Default.LookupAll(vals) }

// Strs materializes a row from the Default table.
func Strs(ids []ID) []string { return Default.Strs(ids) }

// AppendKey appends the 4-byte big-endian encoding of every ID to dst and
// returns it: the packed-key primitive of the callers that key a Go map by
// IDs at a boundary. Packing is collision-free by construction (fixed
// width), unlike NUL-joined strings. Below the boundary nothing packs: the
// lookups hash the IDs through RefTable.
func AppendKey(dst []byte, ids []ID) []byte {
	for _, id := range ids {
		dst = append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return dst
}

// Key packs an ID tuple into a map key string.
func Key(ids []ID) string { return string(AppendKey(nil, ids)) }
