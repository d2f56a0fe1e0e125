// Package storage provides the in-memory relational store backing the data
// sources of the reproduction. The paper's prototype kept its sources in
// local PostgreSQL tables and translated each access into an SQL query; here
// a Table plays that role — a named set of rows with hash indexes on the
// position sets that accesses bind. The cost metric of the paper is the
// number of accesses, not SQL time, so this substitution preserves every
// reported behaviour.
//
// Rows are interned: every value is swapped for its internal/sym ID at
// insert time (ingest, CSV load), so the stored representation is an IRow —
// a flat []sym.ID with no pointers for the GC to trace — and every lookup
// below the insert boundary hashes those IDs directly: the row set and every
// index are a sym.RefTable of references into the row log, so neither a
// probe nor an insert builds a key, and none is kept beside the row it came
// from. The string Row type remains the boundary representation (CSV files,
// JSON ingestion, results); Rows materializes through the symbol table only
// when a caller asks for strings.
//
// Tables are live: Insert and Delete batches mutate a table while queries
// run. Mutation is copy-on-write — every batch publishes a new immutable
// Snapshot under a monotonically increasing epoch, and readers pick up the
// current snapshot through a single atomic load, so a reader holding a
// snapshot observes a frozen version of the relation no matter how far
// writers advance it. Executors pin one snapshot per relation per execution
// (source.Registry.Snapshot), which is what makes concurrent ingestion safe:
// a query's answers are always the answers over some single epoch of each
// relation, never a torn mix of two.
//
// A snapshot shares three things with the writer and with its siblings, each
// safe for its own reason. The row log's backing array: a snapshot of length
// n never reads past n, writers only append, and a stored row is never
// modified. The tombstones — a bitset over log offsets and its count: a
// published bitset is immutable, and the batch that deletes or revives a row
// copies it first (one memmove of len(rows)/8 bytes, whatever the number of
// tombstones). The index set, the one shared structure that does change,
// behind its own lock.
//
// Indexes are persistent across epochs: all snapshots of a table share one
// index set, and a snapshot that needs an index extends it incrementally
// over the rows appended since the index was last used. Buckets hold
// master-log offsets in ascending order; each snapshot serves lookups by
// cutting a bucket at its own row watermark and skipping its own
// tombstones, so arbitrarily many epochs read one shared index without
// seeing each other's rows. Compaction (which renumbers offsets) starts a
// fresh index set; snapshots published before it keep the old one.
package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"toorjah/internal/sym"
)

// Row is one tuple of a table in its boundary representation: plain
// strings, as read from CSV files or JSON ingestion and as rendered into
// results. Inside the table rows are stored interned (IRow).
type Row []string

// Key encodes the row into a collision-free string.
func (r Row) Key() string { return strings.Join([]string(r), "\x00") }

// Intern swaps every value for its symbol ID (interning first-seen values).
func (r Row) Intern() IRow { return sym.InternAll(r) }

// IRow is one stored tuple: the interned form of a Row. It is the canonical
// representation everywhere below the ingest boundary — storage, sources,
// the cross-query cache and the executors exchange IRows and materialize
// strings only at the result/NDJSON boundary.
type IRow []sym.ID

// Strings materializes the row back into its boundary form.
func (r IRow) Strings() Row { return sym.Strs(r) }

// Key packs the row into a collision-free map key (4 bytes per value), for
// callers that keep rows in maps of their own; nothing in this package does.
func (r IRow) Key() string { return sym.Key(r) }

// InternRows interns a batch of boundary rows.
func InternRows(rows []Row) []IRow {
	out := make([]IRow, len(rows))
	for i, r := range rows {
		out[i] = r.Intern()
	}
	return out
}

// MaterializeRows renders a batch of stored rows into boundary rows.
func MaterializeRows(rows []IRow) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = r.Strings()
	}
	return out
}

// Table is a named set of rows of fixed arity with hash indexes and
// copy-on-write mutation. The master state — an append-only interned row
// log, the row set over it, and the current tombstones — belongs to writers
// and is guarded by wmu; readers never touch it. Every mutating batch
// publishes a fresh immutable Snapshot (sharing the row log's backing
// array, which is safe: a snapshot of length n never reads past n, and
// writers only append) carrying the table's shared persistent index set. A
// table's log holds fewer than 2³¹ rows between compactions.
type Table struct {
	Name  string
	Arity int

	wmu     sync.Mutex   // serializes writers
	rows    []IRow       // append-only master log (interned), carved from per-batch blocks
	seen    sym.RefTable // the row set: references into rows, tombstoned rows included
	dead    tombstones   // current tombstones; copied, never mutated, once published
	idx     *indexSet    // persistent indexes over rows; replaced on compaction
	scratch []sym.ID     // the IDs of the batch being added; no row keeps it
	hook    func(CommitEvent)
	snap    atomic.Pointer[Snapshot]
}

// tombstones marks the deleted offsets of a row log: a bitset and its
// population count. A set may be shorter than the log it covers — offsets
// past its end are live.
type tombstones struct {
	bits []uint64
	n    int
}

func (d tombstones) has(off int) bool {
	w := off >> 6
	return w < len(d.bits) && d.bits[w]>>(uint(off)&63)&1 != 0
}

// forWrite returns a private copy of the set covering a log of the given
// length, which a batch can mark without disturbing published snapshots.
func (d tombstones) forWrite(rows int) tombstones {
	bits := make([]uint64, (rows+63)/64)
	copy(bits, d.bits)
	return tombstones{bits: bits, n: d.n}
}

func (d *tombstones) mark(off int) {
	d.bits[off>>6] |= 1 << (uint(off) & 63)
	d.n++
}

func (d *tombstones) unmark(off int) {
	d.bits[off>>6] &^= 1 << (uint(off) & 63)
	d.n--
}

// CommitOp says what a committed batch did.
type CommitOp uint8

const (
	OpInsert CommitOp = iota + 1
	OpDelete
)

// String names the operation for logs and wire formats.
func (op CommitOp) String() string {
	if op == OpDelete {
		return "delete"
	}
	return "insert"
}

// CommitEvent describes one applied mutating batch: the rows that actually
// changed the table (duplicates and misses filtered out) and the epoch the
// batch advanced the table to. Replaying the events of a table in order on
// an empty table of the same name and arity rebuilds both its live row set
// and its epoch — the contract the write-ahead log persists.
type CommitEvent struct {
	Relation string
	Arity    int
	Op       CommitOp
	Epoch    uint64 // epoch after the batch applied
	Rows     []Row  // the rows actually inserted/deleted, in batch order
}

// SetCommitHook installs fn to be called after every batch that changes
// the table, while the writer lock is still held — events arrive in strict
// epoch order, and the mutating call does not return (so a caller cannot
// observe its own write, let alone acknowledge it) until fn does. A nil fn
// removes the hook. Hooks observe only batches applied after installation.
func (t *Table) SetCommitHook(fn func(CommitEvent)) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.hook = fn
}

// NewTable creates an empty table at epoch 1.
func NewTable(name string, arity int) *Table {
	t := &Table{Name: name, Arity: arity, idx: new(indexSet)}
	t.snap.Store(&Snapshot{name: name, arity: arity, epoch: 1, idx: t.idx})
	return t
}

// RestoreTable rebuilds a table from recovered durable state: the live
// rows it held and the epoch it had reached. It is the write-ahead-log
// recovery entry point — the restored table is observationally identical
// to one that applied the original batches, so epochs keep their meaning
// (cache keys, federation staleness checks) across a restart. Rows that
// disagree with the arity or duplicate earlier rows are dropped. An epoch
// of 0 restores to 1, the epoch of a fresh table.
func RestoreTable(name string, arity int, epoch uint64, rows []Row) *Table {
	t := &Table{Name: name, Arity: arity, idx: new(indexSet)}
	t.addLocked(rows)
	if epoch == 0 {
		epoch = 1
	}
	snap := &Snapshot{
		name:  name,
		arity: arity,
		epoch: epoch,
		rows:  t.rows[:len(t.rows):len(t.rows)],
		idx:   t.idx,
	}
	if epoch > 1 {
		snap.at = time.Now()
	}
	t.snap.Store(snap)
	return t
}

// Snapshot returns the current immutable version of the table. The snapshot
// stays valid and consistent forever: later Insert/Delete batches publish
// new versions without disturbing it.
func (t *Table) Snapshot() *Snapshot { return t.snap.Load() }

// Epoch returns the current version number. Epochs start at 1 and advance
// by one per mutating batch (a batch that changes nothing keeps the epoch).
func (t *Table) Epoch() uint64 { return t.Snapshot().epoch }

// publish installs a new snapshot one epoch past the current one; the
// caller holds wmu and has finished mutating the master state.
func (t *Table) publish() {
	cur := t.snap.Load()
	t.snap.Store(&Snapshot{
		name:  t.Name,
		arity: t.Arity,
		epoch: cur.epoch + 1,
		at:    time.Now(),
		rows:  t.rows[:len(t.rows):len(t.rows)],
		dead:  t.dead,
		idx:   t.idx,
	})
}

// offsetOf returns the log offset of a stored row hashed to h — live or
// tombstoned — or −1; wmu is held (or the table is not yet shared).
func (t *Table) offsetOf(ir IRow, h uint32) int {
	for at, ref := t.seen.First(h); ref >= 0; at, ref = t.seen.Next(at, h) {
		if slices.Equal(t.rows[ref], ir) {
			return int(ref)
		}
	}
	return -1
}

// Insert adds a row, deduplicating; it reports whether the row was new.
// Single-row convenience over InsertAll — batch mutations where possible:
// every changing batch is one copy-on-write step and one epoch.
func (t *Table) Insert(r Row) bool { return t.InsertAll([]Row{r}) == 1 }

// InsertAll adds every row in one batch, interning the values and
// deduplicating against the live contents, and returns the number of rows
// actually added. A batch that adds at least one row advances the table's
// epoch by exactly one; re-inserting a previously deleted row revives it.
func (t *Table) InsertAll(rows []Row) int {
	for _, r := range rows {
		if len(r) != t.Arity {
			panic(fmt.Sprintf("table %s: row arity %d, want %d", t.Name, len(r), t.Arity))
		}
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	n, applied := t.addLocked(rows)
	if n > 0 {
		t.publish()
		t.commitLocked(OpInsert, applied)
	}
	return n
}

// addLocked adds a batch, skipping rows of another arity, and returns the
// number of rows it added or revived and — when a commit hook is listening —
// those rows. The batch is interned into the table's scratch, deduplicated
// against the row set (new rows point into the scratch meanwhile, so a row
// repeated within the batch is found too), and the new rows are then copied
// into one block sized exactly to them: a batch costs the log one
// allocation, not one per row, and no row keeps the scratch. wmu is held.
func (t *Table) addLocked(rows []Row) (n int, applied []Row) {
	ids := slices.Grow(t.scratch[:0], len(rows)*t.Arity)
	for _, r := range rows {
		if len(r) == t.Arity {
			for _, v := range r {
				ids = append(ids, sym.Intern(v))
			}
		}
	}
	t.scratch = ids
	from := len(t.rows)
	t.rows = slices.Grow(t.rows, len(rows))
	t.seen.Grow(len(rows))
	deadCopied := false
	for _, r := range rows {
		if len(r) != t.Arity {
			continue
		}
		ir := IRow(ids[:t.Arity:t.Arity])
		ids = ids[t.Arity:]
		h := sym.HashIDs(ir)
		switch off := t.offsetOf(ir, h); {
		case off < 0:
			t.seen.Add(h, int32(len(t.rows)))
			t.rows = append(t.rows, ir)
		case !t.dead.has(off):
			continue
		default:
			if !deadCopied {
				t.dead, deadCopied = t.dead.forWrite(len(t.rows)), true
			}
			t.dead.unmark(off)
		}
		n++
		if t.hook != nil {
			applied = append(applied, r)
		}
	}
	block := make([]sym.ID, (len(t.rows)-from)*t.Arity)
	for off := from; off < len(t.rows); off++ {
		t.rows[off] = carve(&block, t.rows[off])
	}
	return n, applied
}

// carve copies r into the front of *block and cuts it off, capacity and
// all, so no row of a block can grow into its neighbour.
func carve(block *[]sym.ID, r IRow) IRow {
	ir := IRow((*block)[:len(r):len(r)])
	*block = (*block)[len(r):]
	copy(ir, r)
	return ir
}

// commitLocked delivers the batch to the commit hook, if any; wmu is held
// and publish has run, so the snapshot carries the post-batch epoch.
func (t *Table) commitLocked(op CommitOp, applied []Row) {
	if t.hook == nil {
		return
	}
	t.hook(CommitEvent{
		Relation: t.Name,
		Arity:    t.Arity,
		Op:       op,
		Epoch:    t.snap.Load().epoch,
		Rows:     applied,
	})
}

// Delete removes a row; it reports whether the row was present.
func (t *Table) Delete(r Row) bool { return t.DeleteAll([]Row{r}) == 1 }

// DeleteAll removes every given row in one batch and returns the number of
// rows actually removed. Deletion is a tombstone over the master log: the
// batch copies the tombstone bitset once, so published snapshots keep
// serving the rows they were born with. A batch that removes at least one
// row advances the epoch by exactly one.
func (t *Table) DeleteAll(rows []Row) int {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	n := 0
	deadCopied := false
	ir := make(IRow, t.Arity)
	var applied []Row // collected only when a commit hook is listening
rows:
	for _, r := range rows {
		if len(r) != t.Arity {
			continue
		}
		for i, v := range r {
			// A value never interned cannot be stored anywhere.
			id, ok := sym.Lookup(v)
			if !ok {
				continue rows
			}
			ir[i] = id
		}
		off := t.offsetOf(ir, sym.HashIDs(ir))
		if off < 0 || t.dead.has(off) {
			continue
		}
		if !deadCopied {
			t.dead, deadCopied = t.dead.forWrite(len(t.rows)), true
		}
		t.dead.mark(off)
		n++
		if t.hook != nil {
			applied = append(applied, r)
		}
	}
	if n > 0 {
		t.maybeCompactLocked()
		t.publish()
		t.commitLocked(OpDelete, applied)
	}
	return n
}

// compactMinDead is the tombstone count below which compaction is never
// worth the rewrite.
const compactMinDead = 1024

// maybeCompactLocked rewrites the master log without its tombstoned rows
// once they dominate it, so that sustained insert/delete churn — the
// streaming-ingest workload — keeps memory and index cost proportional to
// the live data, not to everything ever inserted. The live rows are copied
// into one fresh block, so a survivor does not keep the block of the batch
// it came in alive, with all its dead rows. The rewrite renumbers
// offsets, so it also starts a fresh persistent index set; snapshots
// already published keep the old log and the old indexes untouched.
// Invisible to readers: the next publish carries the usual single epoch
// advance. wmu is held.
func (t *Table) maybeCompactLocked() {
	if t.dead.n < compactMinDead || 2*t.dead.n < len(t.rows) {
		return
	}
	live := make([]IRow, 0, len(t.rows)-t.dead.n)
	block := make([]sym.ID, cap(live)*t.Arity)
	var seen sym.RefTable
	seen.Grow(cap(live))
	for off, r := range t.rows {
		if !t.dead.has(off) {
			seen.Add(sym.HashIDs(r), int32(len(live)))
			live = append(live, carve(&block, r))
		}
	}
	t.rows, t.seen, t.dead = live, seen, tombstones{}
	t.idx = new(indexSet)
}

// Snapshot is one immutable version of a table: the rows visible at one
// epoch. All methods are safe for concurrent use. Lookups are served by the
// table's persistent index set, shared across snapshots: the first snapshot
// to use a position set builds its index, later epochs only extend it over
// their newly appended rows, and each snapshot filters lookups through its
// own row watermark and tombstones.
type Snapshot struct {
	name  string
	arity int
	epoch uint64
	at    time.Time
	rows  []IRow     // immutable prefix of the master log
	dead  tombstones // immutable tombstones over rows
	idx   *indexSet  // shared persistent indexes (see indexSet)

	liveOnce sync.Once
	live     []IRow // cached live rows (== rows when no tombstones)
}

// Epoch returns this version's number; epochs start at 1 and increase by
// one per mutating batch.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// ModifiedAt returns when this version was published (zero for the initial
// empty version of a table).
func (s *Snapshot) ModifiedAt() time.Time { return s.at }

// Len returns the number of live rows in this version.
func (s *Snapshot) Len() int { return len(s.rows) - s.dead.n }

// RowsSym returns the live rows of this version in stored (interned) form.
// The returned slice is shared and must not be mutated; free-relation
// probes serve every access from it without materializing a string.
func (s *Snapshot) RowsSym() []IRow {
	s.liveOnce.Do(func() {
		if s.dead.n == 0 {
			s.live = s.rows
			return
		}
		live := make([]IRow, 0, s.Len())
		for off, r := range s.rows {
			if !s.dead.has(off) {
				live = append(live, r)
			}
		}
		s.live = live
	})
	return s.live
}

// Rows returns a copy of the live rows of this version in boundary form.
func (s *Snapshot) Rows() []Row { return MaterializeRows(s.RowsSym()) }

// SelectInto is the probe primitive of the engine: it sets out[i] to the
// stored rows whose values at positions equal bindings[i] — nil when there
// are none; with no positions, every live row, one shared slice. Every
// slot is assigned, whatever it held; len(out) must be len(bindings). A
// binding whose width is not len(positions) is an error. Nothing is built
// per binding and nothing allocated for one that matches no row: the IDs are
// hashed as they stand, and the index of the position set is resolved once
// for the whole batch — one lock acquisition, at most one extension over
// rows appended since it was last used. The rows are shared and immutable;
// neither the bindings nor out are kept.
func (s *Snapshot) SelectInto(positions []int, bindings [][]sym.ID, out [][]IRow) error {
	if len(positions) > 0 {
		return s.idx.selectInto(s, positions, bindings, out)
	}
	rows := s.RowsSym()
	for i, b := range bindings {
		if len(b) != 0 {
			return s.widthError(positions, b)
		}
		out[i] = rows
	}
	return nil
}

func (s *Snapshot) widthError(positions []int, b []sym.ID) error {
	return fmt.Errorf("table %s: binding of %d values for %d bound positions", s.name, len(b), len(positions))
}

// SelectBatchSym is SelectInto with the result slots allocated for the
// caller; a binding of the wrong width panics.
func (s *Snapshot) SelectBatchSym(positions []int, bindings [][]sym.ID) [][]IRow {
	out := make([][]IRow, len(bindings))
	if err := s.SelectInto(positions, bindings, out); err != nil {
		panic(err.Error())
	}
	return out
}

// indexSet is the persistent index state shared by every snapshot of one
// table (until a compaction renumbers offsets and starts a fresh set): one
// index per position set a probe has bound — a handful at most, so finding
// one is a scan comparing position lists. A snapshot extends an index to its
// own watermark on first use and filters lookups through its watermark and
// tombstones, so one index serves every epoch. The zero value is an empty
// set.
type indexSet struct {
	mu      sync.RWMutex
	indexes []*index
}

// index groups the rows of a log prefix by their values at fixed positions.
type index struct {
	positions []int
	rows      []IRow       // the log prefix indexed so far; what the offsets below point into
	group     sym.RefTable // references into buckets
	buckets   [][]int32    // per key, the ascending log offsets of the rows holding it
}

// on returns the index on the given positions, or nil; ix.mu is held.
func (ix *indexSet) on(positions []int) *index {
	for _, in := range ix.indexes {
		if slices.Equal(in.positions, positions) {
			return in
		}
	}
	return nil
}

// find returns the bucket of the rows holding vals at the index's positions,
// hashed to h, or −1. Every row of a bucket carries the bucket's key, so the
// first one stands for it.
func (in *index) find(vals []sym.ID, h uint32) int32 {
candidates:
	for at, ref := in.group.First(h); ref >= 0; at, ref = in.group.Next(at, h) {
		r := in.rows[in.buckets[ref][0]]
		for i, p := range in.positions {
			if r[p] != vals[i] {
				continue candidates
			}
		}
		return ref
	}
	return -1
}

// selectInto fills out[i] with the rows of snapshot s matching bindings[i]
// over the position set. One read lock covers the whole batch; a batch that
// finds the index lagging behind s's rows has it extended first (an index
// only ever grows, so it still covers s once the read lock is back).
func (ix *indexSet) selectInto(s *Snapshot, positions []int, bindings [][]sym.ID, out [][]IRow) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	in := ix.on(positions)
	if in == nil || len(in.rows) < len(s.rows) {
		ix.mu.RUnlock()
		ix.mu.Lock()
		in = ix.extendLocked(positions, s.rows)
		ix.mu.Unlock()
		ix.mu.RLock()
	}
	for i, b := range bindings {
		if len(b) != len(positions) {
			return s.widthError(positions, b)
		}
		out[i] = nil
		if bucket := in.find(b, sym.HashIDs(b)); bucket >= 0 {
			out[i] = s.collect(in.buckets[bucket])
		}
	}
	return nil
}

// extendLocked brings the index of one position set up to the given row
// prefix; ix.mu is held for writing. Later rows appended by newer epochs
// are indexed when a newer snapshot first looks them up.
func (ix *indexSet) extendLocked(positions []int, rows []IRow) *index {
	in := ix.on(positions)
	if in == nil {
		in = &index{positions: slices.Clone(positions)}
		ix.indexes = append(ix.indexes, in)
	}
	if len(rows) <= len(in.rows) {
		return in
	}
	from := len(in.rows)
	in.rows = rows
	var kb [8]sym.ID
	for off := from; off < len(rows); off++ {
		vals := kb[:0]
		for _, p := range in.positions {
			vals = append(vals, rows[off][p])
		}
		h := sym.HashIDs(vals)
		if bucket := in.find(vals, h); bucket >= 0 {
			in.buckets[bucket] = append(in.buckets[bucket], int32(off))
			continue
		}
		in.group.Add(h, int32(len(in.buckets)))
		in.buckets = append(in.buckets, []int32{int32(off)})
	}
	return in
}

// collect resolves a bucket of master-log offsets into this snapshot's
// rows: offsets are ascending, so the bucket is cut at the snapshot's
// watermark, and the snapshot's own tombstones are skipped. A bucket with
// nothing to show for this snapshot resolves to nil.
func (s *Snapshot) collect(offs []int32) []IRow {
	n := len(offs)
	// Binary-search the watermark cut: rows past this snapshot belong to
	// later epochs.
	if n > 0 && int(offs[n-1]) >= len(s.rows) {
		n = sort.Search(n, func(i int) bool { return int(offs[i]) >= len(s.rows) })
	}
	live := n
	if s.dead.n > 0 {
		live = 0
		for _, off := range offs[:n] {
			if !s.dead.has(int(off)) {
				live++
			}
		}
	}
	if live == 0 {
		return nil
	}
	out := make([]IRow, 0, live)
	for _, off := range offs[:n] {
		if live == n || !s.dead.has(int(off)) {
			out = append(out, s.rows[off])
		}
	}
	return out
}

// Database is a collection of named tables.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDatabase creates an empty database.
func NewDatabase() *Database { return &Database{tables: make(map[string]*Table)} }

// Create adds an empty table; it fails on duplicate names.
func (d *Database) Create(name string, arity int) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.tables[name]; dup {
		return nil, fmt.Errorf("table %s already exists", name)
	}
	t := NewTable(name, arity)
	d.tables[name] = t
	return t, nil
}

// Attach adds an existing table — typically one rebuilt by RestoreTable
// during recovery; it fails on duplicate names.
func (d *Database) Attach(t *Table) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.tables[t.Name]; dup {
		return fmt.Errorf("table %s already exists", t.Name)
	}
	d.tables[t.Name] = t
	return nil
}

// Table returns the named table, or nil.
func (d *Database) Table(name string) *Table {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tables[name]
}
