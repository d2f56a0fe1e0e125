package sym

import (
	"math/bits"
	"math/rand/v2"
)

// hashSeed keys every reference table of the process. The values hashed are
// IDs of client-supplied strings — query constants, ingested rows — so, like
// the runtime's maps, the function must not be predictable from outside.
var hashSeed = rand.Uint64()

// HashIDs hashes a sequence of IDs for a RefTable: one 64×64→128-bit
// multiplication per ID, folded. The table indexes by the top bits, which a
// multiplicative hash spreads evenly over consecutive IDs — what the
// interner hands out. It is kept small enough to inline, so a probe loop
// hashes each binding without a call.
func HashIDs(ids []ID) uint32 {
	h := hashSeed
	for _, id := range ids {
		h = mix(h, id)
	}
	return uint32(h >> 32)
}

// HashPair is HashIDs([]ID{a, b}) without the loop, for a probe loop over
// two-ID bindings, where the loop costs a third of a miss.
func HashPair(a, b ID) uint32 { return uint32(mix(mix(hashSeed, a), b) >> 32) }

// mix folds one ID into a running hash.
func mix(h uint64, id ID) uint64 {
	hi, lo := bits.Mul64(h^uint64(id), 0x9E3779B97F4A7C15)
	return hi ^ lo
}

// RefTable is the one ID-keyed hash table of the engine: open addressing
// (linear probing, at most half full) over int32 references into storage its
// owner already keeps — a relation's tuples, a table's row log, an index's
// buckets. It stores no key: the owner hashes the IDs it looks for (HashIDs),
// walks the references filed under that hash and compares each candidate
// against what the reference points at. Only the hash is kept, which saves
// most of those comparisons and lets the table grow without looking at a
// tuple. So a lookup builds nothing — no packed key, no string — and nothing
// but the eight bytes of a slot is kept beside the tuple an entry came from.
//
// What keys a lookup below the string boundary is decided here: datalog's
// cache relations, storage's row set and indexes, the generations of the
// cross-query cache, the executors' meta-caches and their enumerators'
// domain sets are all this table. The zero value is an empty table; a table
// holds fewer than 2³¹ references and is not safe for concurrent use.
type RefTable struct {
	slots []refSlot
	used  int
	shift uint8 // 32 − log₂ len(slots): a hash's home slot is its top bits
}

type refSlot struct {
	hash uint32
	ref  int32 // the reference plus one; 0 marks an empty slot
}

// First returns the first reference filed under hash h and the slot it
// occupies, or −1 when there is none; Next continues from a slot First or
// Next returned. The caller walks until a reference points at what it is
// looking for:
//
//	for at, ref := tb.First(h); ref >= 0; at, ref = tb.Next(at, h) { … }
func (tb *RefTable) First(h uint32) (at int, ref int32) {
	if len(tb.slots) == 0 {
		return 0, -1
	}
	return tb.scan(int(h>>tb.shift), h)
}

// Next continues a walk begun by First.
func (tb *RefTable) Next(at int, h uint32) (int, int32) {
	return tb.scan((at+1)&(len(tb.slots)-1), h)
}

func (tb *RefTable) scan(at int, h uint32) (int, int32) {
	for mask := len(tb.slots) - 1; ; at = (at + 1) & mask {
		switch s := tb.slots[at]; {
		case s.ref == 0:
			return at, -1
		case s.hash == h:
			return at, s.ref - 1
		}
	}
}

// Add files a reference under hash h. The caller has walked the entries
// under h and found none equal to what ref points at. A full table doubles,
// rehashing by the stored hashes alone.
func (tb *RefTable) Add(h uint32, ref int32) {
	if 2*(tb.used+1) > len(tb.slots) {
		tb.Grow(1)
	}
	tb.place(refSlot{hash: h, ref: ref + 1})
	tb.used++
}

// Grow makes room for n more references, so the next n Adds rehash nothing:
// a batch of n grows the table once, to the size n Adds would have doubled
// it to.
func (tb *RefTable) Grow(n int) {
	if 2*(tb.used+n) <= len(tb.slots) {
		return
	}
	old := tb.slots
	tb.slots = make([]refSlot, max(8, 1<<bits.Len(uint(2*(tb.used+n)-1))))
	tb.shift = uint8(32 - bits.TrailingZeros(uint(len(tb.slots))))
	for _, s := range old {
		if s.ref != 0 {
			tb.place(s)
		}
	}
}

func (tb *RefTable) place(s refSlot) {
	at, mask := int(s.hash>>tb.shift), len(tb.slots)-1
	for tb.slots[at].ref != 0 {
		at = (at + 1) & mask
	}
	tb.slots[at] = s
}

// Delete unfiles the reference in slot at — one First or Next just returned
// — and closes the gap (backward shift): each later entry of the run moves
// back unless that would put it before its home slot, so every walk still
// ends at an empty slot and nothing is left behind to skip. Slots move, so a
// walk in progress does not survive it.
func (tb *RefTable) Delete(at int) {
	mask := len(tb.slots) - 1
	for next := (at + 1) & mask; tb.slots[next].ref != 0; next = (next + 1) & mask {
		s := tb.slots[next]
		if home := int(s.hash >> tb.shift); (next-home)&mask >= (next-at)&mask {
			tb.slots[at] = s
			at = next
		}
	}
	tb.slots[at] = refSlot{}
	tb.used--
}

// Reset empties the table, keeping its capacity.
func (tb *RefTable) Reset() {
	clear(tb.slots)
	tb.used = 0
}
