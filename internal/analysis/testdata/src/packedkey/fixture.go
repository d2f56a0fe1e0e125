// The packed-key fixture poses as toorjah/internal/cache (the test loads it
// at that import path), the last hot-path package to have kept a packed
// string key: hotpath-strings bans them in all four.
package cache

import (
	"strconv"

	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// BadVersionedKey renders relation, binding and epoch into one key, the way
// the cross-query cache once addressed its entries.
func BadVersionedKey(buf []byte, rel string, binding []sym.ID, epoch uint64) []byte {
	buf = append(append(buf[:0], rel...), 0)
	buf = sym.AppendKey(buf, binding) // want `builds a packed string key`
	return strconv.AppendUint(append(buf, 0, '@'), epoch, 16)
}

// BadSeen keys a membership map by packed IDs.
func BadSeen(seen map[string]bool, ids []sym.ID) bool {
	return seen[sym.Key(ids)] // want `builds a packed string key`
}

// BadAppend packs into a reused buffer: the buffer saves the allocation,
// not the packing, the byte hash or the string compare.
func BadAppend(buf []byte, ids []sym.ID) []byte {
	return sym.AppendKey(buf[:0], ids) // want `builds a packed string key`
}

// BadRowKey packs a stored row through its method.
func BadRowKey(r storage.IRow) string {
	return r.Key() // want `builds a packed string key`
}

// GoodHash hashes the IDs as they stand.
func GoodHash(ids []sym.ID) uint32 {
	return sym.HashIDs(ids)
}

// Export hands a packed key to a caller that keeps maps of its own.
//
//toorjahvet:boundary (fixture: the marked exit point)
func Export(r storage.IRow) string {
	return sym.Key(r)
}
