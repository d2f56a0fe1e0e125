// The snapshot-discipline fixture lives outside internal/storage and
// reads tables both ways: unpinned (flagged) and through a pinned
// snapshot (fine). Mutations are not reads and stay unflagged.
package snapfixture

import "toorjah/internal/storage"

// BadLen reads through the unpinned convenience surface.
func BadLen(t *storage.Table) int {
	return t.Len() // want `unpinned Table\.Len`
}

// BadRows re-loads the current snapshot per call.
func BadRows(t *storage.Table) []storage.Row {
	return t.Rows() // want `unpinned Table\.Rows`
}

// GoodPinned pins one version and reads everything from it.
func GoodPinned(t *storage.Table) (int, []storage.Row) {
	snap := t.Snapshot()
	return snap.Len(), snap.Rows()
}

// GoodMutate mutates, which is not a read.
func GoodMutate(t *storage.Table, r storage.Row) bool {
	return t.Insert(r)
}

// GoodEpoch reads the version stamp, which is snapshot-consistent.
func GoodEpoch(t *storage.Table) uint64 {
	return t.Epoch()
}
