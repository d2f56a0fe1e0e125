// Package sym provides the process-wide value interning of the engine: a
// concurrency-safe symbol table mapping every data value to a
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
// datalog's cache relations, the cross-query cache's generations, the
// executors' meta-caches and their enumerators' domain sets hash the IDs as
// they stand (HashIDs) into a table of references to tuples they already
// store, and build no key at all.
// AppendKey/Key pack IDs into a string for the callers that key a Go map at
// a boundary — a finished result's answer set, tests.
//
// An ID is stable while anything holds it, and only then. An ID is held by
// a hold (Table.Hold) while the hold is active — an execution, a write
// batch, a /probe or a snapshot read takes one for as long as it keeps IDs;
// by a root (AddRoot) — a table's rows, an access cache's entries, a
// result's answers — while the root is reachable; and by a pin, for good:
// the exported Intern, InternAll and Lookup pin what they hand out, the
// contract of callers that know nothing of holds. A sweep (Table.Sweep, and
// automatically as IDs are issued) runs only while no hold is active: it
// keeps every ID a root or a pin holds and frees the rest, whose IDs are
// issued again before any new one. So an ID, and every hash or key made
// from it, survives snapshots, compactions and data epochs for as long as
// it is held — what lets the cross-query cache keep serving entries filed by
// IDs while relations advance underneath it.
//
// The zero ID is never issued; it is reserved as "no value" so packed keys
// and sentinel slots stay unambiguous.
package sym

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ID is an interned value: a dense handle into the symbol table. IDs start
// at 1; 0 is reserved and never issued.
type ID uint32

// shardCount must be a power of two; 64 shards keep concurrent interning
// from remote decodes and parallel ingests from contending.
const shardCount = 64

// Table is a concurrency-safe symbol table. The zero value is not usable;
// use NewTable (or the package-level Default table, which the storage, cache
// and executor layers share — one process, one ID space).
//
// A value costs the GC one pointer: its slot in a reverse page. Its bytes
// are copied into the chunks of its shard, which hold no pointers, and the
// forward index files the ID itself under the value's hash — no map entry,
// no boxed string, and nothing kept of the string Intern was handed.
type Table struct {
	// shards hold the forward index (value -> ID), sharded by value hash so
	// concurrent interning scales.
	shards [shardCount]shard

	// next is the last ID issued; IDs are dense and start at 1.
	next atomic.Uint32

	// pages are the reverse index (ID -> value slot), grown in fixed-size
	// pages that are published once and never moved, so Str reads are
	// lock-free: a page pointer is written exactly once (under the
	// shard-independent pageMu), and an ID's slot before its shard files it.
	pages  atomic.Pointer[[]*page]
	pageMu sync.Mutex

	reclaim // holds, roots, the sweep schedule and the free IDs (reclaim.go)
}

// shard is two cache lines: the lock and the index a lookup touches share
// the first, and no two shards share one.
type shard struct {
	mu    sync.RWMutex
	ids   RefTable        // the shard's IDs, filed under their values' hashes
	chunk strings.Builder // the bytes of the shard's newest values
	_     [32]byte
}

// A shard's value chunk starts at firstChunk bytes and doubles, chunk by
// chunk, up to chunkSize, so a table of a few values is small. A chunk is
// never grown in place, so the values written into it are substrings of one
// buffer that no later write moves; a value longer than chunkSize gets an
// allocation of its own.
const (
	firstChunk = 1 << 10
	chunkSize  = 64 << 10
)

// pageSize is the number of symbols per reverse-lookup page (power of two).
const pageSize = 1 << 12

// page is the reverse index of pageSize IDs: their value slots, and one pin
// bit each. A slot is one pointer, read and written atomically, to the
// value's copy in its chunk, which starts with the value's length (a native
// uint32, 4-byte aligned); the empty value's slot stays nil. The length
// travels with the bytes, both written before the pointer is published and
// never after, so a read of a slot is never torn: a goroutine that resolves
// an ID nothing holds — which a sweep may clear (nil) or reissue meanwhile —
// gets "" or a value the ID once had, never bytes outside a value. A held
// ID's read is ordered after its store, and before the sweep that clears
// it, by the hold; an ID held through a table or a result the GC has since
// collected is ordered before the sweep by the collector alone, which the
// race detector does not see — hence the atomics.
type page struct {
	vals [pageSize]atomic.Pointer[byte]
	pins [pageSize / 64]atomic.Uint64
}

// valueSeed keys the hash of every value of the process: the values are
// client-supplied strings, so the hash must not be predictable from outside.
var valueSeed = maphash.MakeSeed()

// NewTable creates an empty symbol table.
func NewTable() *Table {
	t := &Table{}
	empty := make([]*page, 0)
	t.pages.Store(&empty)
	t.initReclaim()
	return t
}

// Default is the process-wide symbol table: storage tables, the cross-query
// cache and the executors all intern through it, so an ID means the same
// value everywhere in the process.
var Default = NewTable()

// Intern returns the ID of v, issuing one the first time v is seen, and pins
// it: the ID is never freed. Safe for concurrent use; the common case
// (already interned) is one shard read-lock and one index walk. A
// first-seen value is copied, so the ID keeps nothing of v alive. A table
// holding 2³¹−1 IDs — what a RefTable can reference — with none freed panics
// on the next first-seen value: exhaustion is a hard failure, never an ID
// issued twice.
func (t *Table) Intern(v string) ID { return t.intern(v, true) }

// intern returns the ID of v, issuing one when v has none, and pins it when
// pin is set.
func (t *Table) intern(v string, pin bool) ID {
	sh, h := t.shard(v)
	sh.mu.RLock()
	id := t.find(sh, v, h)
	if id != 0 && pin {
		t.pin(id)
	}
	sh.mu.RUnlock()
	if id != 0 {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id := t.find(sh, v, h); id != 0 {
		if pin {
			t.pin(id)
		}
		return id
	}
	id = t.issue()
	t.store(id, sh.copy(v))
	if pin {
		t.pin(id)
	}
	// The reverse slot and the pin are written before the forward index
	// files the ID under the shard's lock, so any goroutine that can
	// observe the ID can resolve it, and a sweep finds it pinned.
	sh.ids.Add(h, int32(id))
	return id
}

// shard returns the shard of v and the hash its index files v under: the
// low bits of one seeded hash pick the shard, the high half keys the index.
func (t *Table) shard(v string) (*shard, uint32) {
	h := maphash.String(valueSeed, v)
	return &t.shards[h&(shardCount-1)], uint32(h >> 32)
}

// find returns the ID of v, hashed to h, in its shard, or 0; sh.mu is held.
func (t *Table) find(sh *shard, v string, h uint32) ID {
	for at, ref := sh.ids.First(h); ref >= 0; at, ref = sh.ids.Next(at, h) {
		if t.Str(ID(ref)) == v {
			return ID(ref)
		}
	}
	return 0
}

// copy appends v, its length first, to the shard's chunk and returns the
// copy (see page), nil for the empty value; sh.mu is held.
func (sh *shard) copy(v string) *byte {
	if v == "" {
		return nil
	}
	var n [4]byte
	binary.NativeEndian.PutUint32(n[:], uint32(len(v)))
	need := 4 + len(v)
	if need > chunkSize {
		b := append(append(make([]byte, 0, need), n[:]...), v...)
		return &b[0]
	}
	pad := -sh.chunk.Len() & 3
	if sh.chunk.Cap()-sh.chunk.Len() < pad+need {
		size := min(chunkSize, max(firstChunk, 2*sh.chunk.Cap(), need))
		sh.chunk.Reset()
		sh.chunk.Grow(size)
		pad = 0
	}
	sh.chunk.WriteString("\x00\x00\x00"[:pad])
	from := sh.chunk.Len()
	sh.chunk.Write(n[:])
	sh.chunk.WriteString(v)
	return unsafe.StringData(sh.chunk.String()[from:])
}

// issue hands out an ID for a first-seen value: one a sweep freed, else the
// next dense one. The counter stops at the last ID: a plain Add would wrap to
// 0 and then re-issue 1, 2, … for new values, so every key packed from IDs
// would silently alias. Values already interned keep resolving after
// exhaustion; only first-seen values panic, and only while no ID is free.
func (t *Table) issue() ID {
	t.issued()
	if t.nfree.Load() > 0 {
		t.freeMu.Lock()
		if n := len(t.free); n > 0 {
			id := t.free[n-1]
			t.free = t.free[:n-1]
			t.nfree.Store(int32(n - 1))
			t.freeMu.Unlock()
			t.stats.reused.Add(1)
			return id
		}
		t.freeMu.Unlock()
	}
	for {
		cur := t.next.Load()
		if cur >= math.MaxInt32 {
			panic("sym: symbol table exhausted: all 2^31-1 IDs are live")
		}
		if t.next.CompareAndSwap(cur, cur+1) {
			return ID(cur + 1)
		}
	}
}

// store writes the reverse-lookup slot for a freshly issued ID, growing the
// page directory when the ID lands past it.
func (t *Table) store(id ID, v *byte) {
	pi := int(uint32(id) / pageSize)
	for {
		pages := *t.pages.Load()
		if pi < len(pages) {
			pages[pi].vals[uint32(id)%pageSize].Store(v)
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

// pin marks id as never to be freed; its shard's lock is held.
func (t *Table) pin(id ID) {
	w := &(*t.pages.Load())[uint32(id)/pageSize].pins[uint32(id)%pageSize/64]
	if bit := uint64(1) << (id % 64); w.Load()&bit == 0 {
		w.Or(bit)
	}
}

// pinned reports whether id is pinned; its shard's lock is held.
func (t *Table) pinned(id ID) bool {
	w := &(*t.pages.Load())[uint32(id)/pageSize].pins[uint32(id)%pageSize/64]
	return w.Load()>>(id%64)&1 != 0
}

// Lookup returns the ID of v without interning it, and pins it; ok is false
// when v is not interned. Read paths (probes of values that may not exist
// in any relation) look up so that queries for absent values cannot grow
// the table.
func (t *Table) Lookup(v string) (ID, bool) { return t.lookup(v, true) }

func (t *Table) lookup(v string, pin bool) (ID, bool) {
	sh, h := t.shard(v)
	sh.mu.RLock()
	id := t.find(sh, v, h)
	if id != 0 && pin {
		t.pin(id)
	}
	sh.mu.RUnlock()
	return id, id != 0
}

// Str returns the value of a held ID. Lock-free: one atomic page-directory
// load and one slot read. The zero ID, and an ID never issued, return the
// empty string; an ID nothing holds returns "" or a value it had.
func (t *Table) Str(id ID) string {
	pages := *t.pages.Load()
	pi := int(uint32(id) / pageSize)
	if pi >= len(pages) {
		return ""
	}
	p := unsafe.Pointer(pages[pi].vals[uint32(id)%pageSize].Load())
	if p == nil {
		return ""
	}
	return unsafe.String((*byte)(unsafe.Add(p, 4)), *(*uint32)(p))
}

// Len returns the number of live symbols: issued and not freed.
func (t *Table) Len() int { return int(t.next.Load()) - int(t.nfree.Load()) }

// InternAll interns and pins every value of a row and returns the ID tuple.
func (t *Table) InternAll(vals []string) []ID {
	out := make([]ID, len(vals))
	for i, v := range vals {
		out[i] = t.Intern(v)
	}
	return out
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

// Intern interns and pins v in the Default table.
func Intern(v string) ID { return Default.Intern(v) }

// Lookup resolves and pins v in the Default table without interning.
func Lookup(v string) (ID, bool) { return Default.Lookup(v) }

// InternAll interns and pins a row in the Default table.
func InternAll(vals []string) []ID { return Default.InternAll(vals) }

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
