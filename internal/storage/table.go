// Package storage provides the in-memory relational store backing the data
// sources of the reproduction. The paper's prototype kept its sources in
// local PostgreSQL tables and translated each access into an SQL query; here
// a Table plays that role — a named set of rows with hash indexes on the
// position sets that accesses bind. The cost metric of the paper is the
// number of accesses, not SQL time, so this substitution preserves every
// reported behaviour.
//
// Rows are interned: every value is swapped for its internal/sym ID at
// insert time (ingest, CSV load), and a stored row is nothing but its IDs —
// arity IDs in a run of the row log, which is cut into pointer-free chunks,
// so the GC traces one pointer per chunk, not one per row. An IRow (a
// []sym.ID) is a view of one such run, built when a probe hands the row
// out. Every lookup below the insert boundary hashes IDs directly: the row
// set and every index are a sym.RefTable of references into the row log,
// so neither a probe nor an insert builds a key, and none is kept beside
// the row it came from. The string Row type remains the boundary
// representation (CSV files, JSON ingestion, results); Rows materializes
// through the symbol table only when a caller asks for strings.
//
// A table is a root of the symbol table (sym.AddRoot): the IDs of its log,
// tombstoned rows included until compaction drops them, are never freed
// while the table is reachable. A batch interns and looks up under a hold
// (sym.Hold), taken before the writer lock, from interning until its rows
// are filed. A snapshot's rows are only the table's while the snapshot is
// current: a caller that reads one outside an execution holds too.
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
// safe for its own reason. The row log's chunks: a snapshot of length n
// never reads past row n, writers only append, a stored row is never
// modified, and a chunk directory, once published, is never written below
// its length. The tombstones — a bitset over log offsets and its count: a
// published bitset is immutable, and the batch that deletes or revives a row
// copies it first (one memmove of n/8 bytes, whatever the number of
// tombstones). The index set, the one shared structure that does change,
// behind its own lock.
//
// Indexes are persistent across epochs: all snapshots of a table share one
// index set, and a snapshot that needs an index extends it incrementally
// over the rows appended since the index was last used. An index chains the
// master-log offsets of each key in ascending order, through one int32 per
// row; each snapshot serves lookups by cutting a chain at its own row
// watermark and skipping its own tombstones, so arbitrarily many epochs read
// one shared index without seeing each other's rows. Compaction (which
// renumbers offsets) starts a fresh index set; snapshots published before it
// keep the old one.
package storage

import (
	"fmt"
	"slices"
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

// Intern swaps every value for its symbol ID (interning first-seen values)
// and pins them (see package sym).
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

// InternRows interns a batch of boundary rows under h, pinning nothing: the
// rows are valid while a hold is active, or a root holds them.
func InternRows(h sym.Hold, rows []Row) []IRow {
	out := make([]IRow, len(rows))
	for i, r := range rows {
		ir := make(IRow, len(r))
		for j, v := range r {
			ir[j] = h.Intern(v)
		}
		out[i] = ir
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

// chunkRows is the number of rows a chunk of the row log holds, a power of
// two so that an offset splits into a chunk and a row by a shift and a
// mask. A row handed out of the log keeps its chunk alive, not the log:
// the cross-query cache, holding a row extracted before a compaction, pins
// 256 rows of the old log. It is also at most compactMinDead, so that every
// compaction — which needs 2·compactMinDead rows and leaves at most half —
// leaves fewer chunks than it found.
const (
	chunkShift = 8
	chunkRows  = 1 << chunkShift
)

// chunks is a row log of one arity: row off is the arity IDs at
// (off mod chunkRows)·arity of chunk off/chunkRows. Every chunk but the
// first is allocated full; the first starts at the size of the log's first
// batch and is reallocated, doubling, until it is full too — so a two-row
// table costs two rows, not a chunk. A directory that was published (a
// snapshot holds it) is never written again below its length: appending a
// chunk writes past it, and reallocating the first chunk replaces the
// directory.
type chunks [][]sym.ID

// row returns the view of row off; its capacity ends with the row, so no
// caller can grow it into its neighbour.
func (c chunks) row(off, arity int) IRow {
	i := (off & (chunkRows - 1)) * arity
	return IRow(c[off>>chunkShift][i : i+arity : i+arity])
}

// push copies ir into the log, which holds n rows, as row n and returns the
// log; more is how many rows the same batch may push after it, which sizes
// a first chunk that must grow.
func (c chunks) push(n int, ir IRow, more int) chunks {
	k, i := n>>chunkShift, (n&(chunkRows-1))*len(ir)
	switch {
	case k == len(c):
		size := chunkRows
		if k == 0 {
			size = min(chunkRows, 1+more)
		}
		c = append(c, make([]sym.ID, size*len(ir)))
	case k == 0 && i+len(ir) > len(c[0]):
		grown := make([]sym.ID, min(chunkRows, max(2*n, n+1+more))*len(ir))
		copy(grown, c[0][:i])
		c = chunks{grown}
	}
	copy(c[k][i:], ir)
	return c
}

// Table is a named set of rows of fixed arity with hash indexes and
// copy-on-write mutation. The master state — an append-only interned row
// log, the row set over it, and the current tombstones — belongs to writers
// and is guarded by wmu; readers never touch it. Every mutating batch
// publishes a fresh immutable Snapshot (sharing the row log's chunks, which
// is safe: a snapshot of length n never reads past row n, and writers only
// append) carrying the table's shared persistent index set. A table's log
// holds fewer than 2³¹ rows between compactions.
type Table struct {
	Name  string
	Arity int

	wmu     sync.Mutex   // serializes writers
	rows    chunks       // append-only master log (interned)
	n       int          // rows in the log, tombstoned rows included
	seen    sym.RefTable // the row set: offsets into rows, tombstoned rows included
	dead    tombstones   // current tombstones; copied, never mutated, once published
	idx     *indexSet    // persistent indexes over rows; replaced on compaction
	scratch []sym.ID     // IDs of the rows being added (internBlock at most) or deleted; no row keeps them
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
// batch advanced the table to. Replaying the events of a table in order
// (Table.Replay) on an empty table of the same name and arity rebuilds its
// live row set, the order Rows lists them in, and its epoch — the contract
// the write-ahead log persists. The order holds for the events alone: a
// snapshot replayed in their place lists only the live rows, so a row
// deleted before it and revived after it lands at the end of the table, not
// at its old place.
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

// NewTable creates an empty table at epoch 1, a root of sym.Default.
func NewTable(name string, arity int) *Table {
	t := &Table{Name: name, Arity: arity, idx: new(indexSet)}
	t.snap.Store(&Snapshot{name: name, arity: arity, epoch: 1, idx: t.idx})
	sym.AddRoot(sym.Default, t)
	return t
}

// MarkIDs marks the IDs of every row of the log, tombstoned ones included:
// a sweep keeps them.
func (t *Table) MarkIDs(m *sym.Marks) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	for k, c := range t.rows {
		m.Add(c[:min(chunkRows, t.n-k*chunkRows)*t.Arity])
	}
}

// Snapshot returns the current immutable version of the table. The snapshot
// stays consistent forever: later Insert/Delete batches publish new versions
// without disturbing it. Its IDs resolve while a hold is active, or while
// the table still holds its rows.
func (t *Table) Snapshot() *Snapshot { return t.snap.Load() }

// Epoch returns the current version number. Epochs start at 1 and advance
// by one per mutating batch (a batch that changes nothing keeps the epoch);
// Replay sets the epoch a batch was logged at.
func (t *Table) Epoch() uint64 { return t.Snapshot().epoch }

// published returns the log's directory as a snapshot holds it: cut at its
// length, so appending a chunk can never write into it.
func (t *Table) published() chunks { return t.rows[:len(t.rows):len(t.rows)] }

// publish installs a new snapshot at the given epoch; the caller holds wmu
// and has finished mutating the master state.
func (t *Table) publish(epoch uint64) {
	t.snap.Store(&Snapshot{
		name:  t.Name,
		arity: t.Arity,
		epoch: epoch,
		at:    time.Now(),
		rows:  t.published(),
		n:     t.n,
		dead:  t.dead,
		idx:   t.idx,
	})
}

// offsetOf returns the log offset of a stored row hashed to h — live or
// tombstoned — or −1; wmu is held (or the table is not yet shared).
func (t *Table) offsetOf(ir IRow, h uint32) int {
	for at, ref := t.seen.First(h); ref >= 0; at, ref = t.seen.Next(at, h) {
		if slices.Equal(t.rows.row(int(ref), t.Arity), ir) {
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
	h := sym.Default.Hold()
	defer h.Release()
	t.wmu.Lock()
	defer t.wmu.Unlock()
	n, applied := t.addLocked(h, rows)
	if n > 0 {
		t.publish(t.Epoch() + 1)
		t.commitLocked(OpInsert, applied)
	}
	return n
}

// Replay applies one logged batch, the inverse of the commit hook: it
// applies the event's rows by its op and publishes the result at the
// event's epoch, not one past the current one. An event at or below the
// current epoch — state the table already holds — is ignored, and Replay
// reports false. So a table rebuilt from a log resumes at its last
// record's epoch even when the log has a gap (a lost snapshot, with the
// segments it covered archived), and epoch-keyed cache entries and peers'
// staleness checks never see an epoch go backwards. A snapshot is one
// insert event replayed onto a fresh table. Rows of another arity are
// skipped, and the commit hook is not called.
func (t *Table) Replay(ev CommitEvent) bool {
	h := sym.Default.Hold()
	defer h.Release()
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if ev.Epoch <= t.Epoch() {
		return false
	}
	if ev.Op == OpDelete {
		t.deleteLocked(h, ev.Rows)
	} else {
		t.addLocked(h, ev.Rows)
	}
	t.publish(ev.Epoch)
	return true
}

// addLocked adds a batch, skipping rows of another arity, and returns the
// number of rows it added or revived and — when a commit hook is listening —
// those rows. The batch is interned internBlock rows at a time into the
// table's scratch, and each row then deduplicated against the row set (which
// holds the batch's earlier rows too) and, when new, copied to the end of
// the log: the log allocates per chunk, never per row, and nothing the size
// of a bulk load is kept. h and wmu are held.
func (t *Table) addLocked(h sym.Hold, rows []Row) (n int, applied []Row) {
	t.seen.Grow(len(rows))
	deadCopied := false
	for len(rows) > 0 {
		block := rows[:min(len(rows), internBlock)]
		rows = rows[len(block):]
		ids := slices.Grow(t.scratch[:0], len(block)*t.Arity)
		for _, r := range block {
			if len(r) == t.Arity {
				for _, v := range r {
					ids = append(ids, h.Intern(v))
				}
			}
		}
		t.scratch = ids
		for i, r := range block {
			if len(r) != t.Arity {
				continue
			}
			ir := IRow(ids[:t.Arity:t.Arity])
			ids = ids[t.Arity:]
			hash := sym.HashIDs(ir)
			switch off := t.offsetOf(ir, hash); {
			case off < 0:
				t.seen.Add(hash, int32(t.n))
				t.rows = t.rows.push(t.n, ir, len(rows)+len(block)-i-1)
				t.n++
			case !t.dead.has(off):
				continue
			default:
				if !deadCopied {
					t.dead, deadCopied = t.dead.forWrite(t.n), true
				}
				t.dead.unmark(off)
			}
			n++
			if t.hook != nil {
				applied = append(applied, r)
			}
		}
	}
	return n, applied
}

// internBlock is the number of rows a batch interns before it deduplicates
// them, which bounds the table's scratch. Interning row by row, between
// probes of the row set, walks the symbol table and the row set in turns,
// which made a 300 000-row load measurably slower.
const internBlock = 4096

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
	h := sym.Default.Hold()
	defer h.Release()
	t.wmu.Lock()
	defer t.wmu.Unlock()
	n, applied := t.deleteLocked(h, rows)
	if n > 0 {
		t.publish(t.Epoch() + 1)
		t.commitLocked(OpDelete, applied)
	}
	return n
}

// deleteLocked tombstones a batch, compacting the log when the batch
// removed a row, and returns the number of rows it removed and — when a
// commit hook is listening — those rows. h and wmu are held.
func (t *Table) deleteLocked(h sym.Hold, rows []Row) (n int, applied []Row) {
	deadCopied := false
	ir := IRow(slices.Grow(t.scratch[:0], t.Arity)[:t.Arity])
	t.scratch = ir
rows:
	for _, r := range rows {
		if len(r) != t.Arity {
			continue
		}
		for i, v := range r {
			// A value never interned cannot be stored anywhere.
			id, ok := h.Lookup(v)
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
			t.dead, deadCopied = t.dead.forWrite(t.n), true
		}
		t.dead.mark(off)
		n++
		if t.hook != nil {
			applied = append(applied, r)
		}
	}
	if n > 0 {
		t.maybeCompactLocked()
	}
	return n, applied
}

// compactMinDead is the tombstone count below which compaction is never
// worth the rewrite.
const compactMinDead = 1024

// maybeCompactLocked rewrites the master log without its tombstoned rows
// once they dominate it, so that sustained insert/delete churn — the
// streaming-ingest workload — keeps memory and index cost proportional to
// the live data, not to everything ever inserted. The live rows are copied
// into fresh chunks, so a survivor does not keep the chunk it was stored in
// alive, with all its dead rows. The rewrite renumbers offsets, so it also
// starts a fresh persistent index set; snapshots already published keep the
// old log and the old indexes untouched. Invisible to readers: the next
// publish carries the usual single epoch advance. wmu is held.
func (t *Table) maybeCompactLocked() {
	if t.dead.n < compactMinDead || 2*t.dead.n < t.n {
		return
	}
	live := t.n - t.dead.n
	var rows chunks
	var seen sym.RefTable
	seen.Grow(live)
	n := 0
	for off := range t.n {
		if !t.dead.has(off) {
			r := t.rows.row(off, t.Arity)
			seen.Add(sym.HashIDs(r), int32(n))
			rows = rows.push(n, r, live-n-1)
			n++
		}
	}
	t.rows, t.n, t.seen, t.dead = rows, n, seen, tombstones{}
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
	rows  chunks     // the master log's directory, read up to row n
	n     int        // the row watermark: rows past it belong to later epochs
	dead  tombstones // immutable tombstones over rows
	idx   *indexSet  // shared persistent indexes (see indexSet)

	liveOnce sync.Once
	live     []IRow // the live rows, built on the first free access
}

// Epoch returns this version's number; epochs start at 1 and increase by
// one per mutating batch.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// ModifiedAt returns when this version was published (zero for the initial
// empty version of a table).
func (s *Snapshot) ModifiedAt() time.Time { return s.at }

// Len returns the number of live rows in this version.
func (s *Snapshot) Len() int { return s.n - s.dead.n }

// RowsSym returns the live rows of this version in stored (interned) form.
// The returned slice is shared and must not be mutated; free-relation
// probes serve every access from it without materializing a string. It is
// the one slice of row headers a snapshot builds, on its first call.
func (s *Snapshot) RowsSym() []IRow {
	s.liveOnce.Do(func() {
		if s.Len() == 0 {
			return
		}
		s.live = make([]IRow, 0, s.Len())
		for off := range s.n {
			if !s.dead.has(off) {
				s.live = append(s.live, s.rows.row(off, s.arity))
			}
		}
	})
	return s.live
}

// Rows returns a copy of the live rows of this version in boundary form.
func (s *Snapshot) Rows() []Row {
	out := make([]Row, 0, s.Len())
	for off := range s.n {
		if !s.dead.has(off) {
			out = append(out, s.rows.row(off, s.arity).Strings())
		}
	}
	return out
}

// SelectInto is the probe primitive of the engine. ids is a block of
// len(out) bindings of len(positions) IDs each, laid back to back; it sets
// out[i] to the stored rows whose values at positions equal the i-th binding
// — nil when there are none; with no positions, every live row, one shared
// slice. Every slot is assigned, whatever it held. A block of any other
// length is an error, found before any slot is touched. Nothing is built
// per binding and nothing allocated for one that matches no row: the IDs
// are hashed as they stand, and the index of the position set is resolved
// once for the whole batch — one lock acquisition, at most one extension
// over rows appended since it was last used. The rows are shared and
// immutable; neither ids nor out is kept.
func (s *Snapshot) SelectInto(positions []int, ids []sym.ID, out [][]IRow) error {
	if len(ids) != len(positions)*len(out) {
		return fmt.Errorf("table %s: a block of %d IDs for %d bindings of %d bound positions", s.name, len(ids), len(out), len(positions))
	}
	if len(positions) == 0 {
		rows := s.RowsSym()
		for i := range out {
			out[i] = rows
		}
		return nil
	}
	s.idx.selectInto(s, positions, ids, out)
	return nil
}

// SelectBatchSym is SelectInto over bindings held one slice apiece, with the
// result slots allocated for the caller; a binding of the wrong width
// panics. A single binding is its own block.
func (s *Snapshot) SelectBatchSym(positions []int, bindings [][]sym.ID) [][]IRow {
	var ids []sym.ID
	if len(bindings) == 1 {
		ids = bindings[0]
	} else {
		for _, b := range bindings {
			if len(b) != len(positions) {
				panic(fmt.Sprintf("table %s: binding of %d values for %d bound positions", s.name, len(b), len(positions)))
			}
		}
		ids = slices.Concat(bindings...)
	}
	out := make([][]IRow, len(bindings))
	if err := s.SelectInto(positions, ids, out); err != nil {
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
// It holds no pointer per key or per row: a key is its chain's first and
// last offset, and a row the offset of the next row of its key.
//
// filter is a one-hash Bloom filter over the keys (B. H. Bloom, "Space/time
// trade-offs in hash coding with allowable errors", CACM 1970): a
// power-of-two bitset of at least 8 bits per key, in which each key's hash
// sets the bit its low bits name — group addresses by the top bits. A
// lookup whose bit is clear has no key and is answered without walking
// group; with 8–16 bits per key, about nine absent keys in ten are. An index
// only grows and compaction starts a fresh set, so no bit is ever cleared:
// a key's bit is set when it is filed, and the bitset is rebuilt from keys
// when it doubles. It lives here, not in sym.RefTable, whose other users
// delete.
type index struct {
	positions []int
	arity     int
	rows      chunks       // the directory of the log prefix indexed so far
	n         int          // the rows indexed
	group     sym.RefTable // references into keys
	keys      []chain      // per key, the ends of its chain
	next      []int32      // per indexed row, the next offset of its key, or −1
	filter    []uint64     // the key filter; its length is a power of two
}

// filterBitsPerKey is the fewest filter bits an index keeps per key.
const filterBitsPerKey = 8

// mayHold reports whether a key hashed to h may be in the index: false
// means it is not.
func (in *index) mayHold(h uint32) bool {
	bit := h & uint32(64*len(in.filter)-1)
	return in.filter[bit>>6]>>(bit&63)&1 != 0
}

// mark sets the filter bit of the key just filed, hashed to h, first
// doubling the filter — and refilling it from every key — when the keys
// outgrow it.
func (in *index) mark(h uint32) {
	if filterBitsPerKey*len(in.keys) > 64*len(in.filter) {
		in.filter = make([]uint64, 2*len(in.filter))
		var kb [8]sym.ID
		for _, k := range in.keys[:len(in.keys)-1] {
			in.set(sym.HashIDs(in.key(kb[:0], int(k.first))))
		}
	}
	in.set(h)
}

func (in *index) set(h uint32) {
	bit := h & uint32(64*len(in.filter)-1)
	in.filter[bit>>6] |= 1 << (bit & 63)
}

// key appends to vals the values of log row off at the index's positions.
func (in *index) key(vals []sym.ID, off int) []sym.ID {
	r := in.rows.row(off, in.arity)
	for _, p := range in.positions {
		vals = append(vals, r[p])
	}
	return vals
}

// findHook, when set, is called for each lookup the key filter lets
// through; tests count with it what the filter rejects.
var findHook func()

// chain is the first and last log offset of the rows holding one key; next
// links the ones between in ascending order.
type chain struct{ first, last int32 }

// on returns the index on the given positions, or nil; ix.mu is held.
func (ix *indexSet) on(positions []int) *index {
	for _, in := range ix.indexes {
		if slices.Equal(in.positions, positions) {
			return in
		}
	}
	return nil
}

// find returns the key of the rows holding vals at the index's positions,
// hashed to h, or −1. A key the filter rejects — most of those a selective
// plan probes for — costs one bit; otherwise every row of a chain carries
// the chain's key, so the first one stands for it.
func (in *index) find(vals []sym.ID, h uint32) int32 {
	if !in.mayHold(h) {
		return -1
	}
	if findHook != nil {
		findHook()
	}
candidates:
	for at, ref := in.group.First(h); ref >= 0; at, ref = in.group.Next(at, h) {
		r := in.rows.row(int(in.keys[ref].first), in.arity)
		for i, p := range in.positions {
			if r[p] != vals[i] {
				continue candidates
			}
		}
		return ref
	}
	return -1
}

// selectInto fills out[i] with the rows of snapshot s matching the i-th
// binding of the block ids over the position set; the block's length has
// been checked. One read lock covers the whole batch; a batch that finds the
// index lagging behind s's rows has it extended first (an index only ever
// grows, so it still covers s once the read lock is back).
func (ix *indexSet) selectInto(s *Snapshot, positions []int, ids []sym.ID, out [][]IRow) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	in := ix.on(positions)
	if in == nil || in.n < s.n {
		ix.mu.RUnlock()
		ix.mu.Lock()
		in = ix.extendLocked(positions, s)
		ix.mu.Unlock()
		ix.mu.RLock()
	}
	w := len(positions)
	for i := range out {
		b := ids[i*w : i*w+w]
		out[i] = nil
		if key := in.find(b, sym.HashIDs(b)); key >= 0 {
			out[i] = s.collect(in, in.keys[key].first)
		}
	}
}

// extendLocked brings the index of one position set up to snapshot s's
// rows; ix.mu is held for writing. Later rows appended by newer epochs are
// indexed when a newer snapshot first looks them up.
func (ix *indexSet) extendLocked(positions []int, s *Snapshot) *index {
	in := ix.on(positions)
	if in == nil {
		in = &index{positions: slices.Clone(positions), arity: s.arity, filter: make([]uint64, 1)}
		ix.indexes = append(ix.indexes, in)
	}
	if s.n <= in.n {
		return in
	}
	in.rows = s.rows
	in.next = slices.Grow(in.next, s.n-in.n)
	var kb [8]sym.ID
	for off := in.n; off < s.n; off++ {
		vals := in.key(kb[:0], off)
		in.next = append(in.next, -1)
		h := sym.HashIDs(vals)
		if key := in.find(vals, h); key >= 0 {
			in.next[in.keys[key].last] = int32(off)
			in.keys[key].last = int32(off)
			continue
		}
		in.group.Add(h, int32(len(in.keys)))
		in.keys = append(in.keys, chain{int32(off), int32(off)})
		in.mark(h)
	}
	in.n = s.n
	return in
}

// collect resolves the chain starting at offset first into this snapshot's
// rows: offsets ascend, so the chain is cut at the snapshot's watermark, and
// the snapshot's own tombstones are skipped. A chain with nothing to show
// for this snapshot resolves to nil. in.mu is held for reading.
func (s *Snapshot) collect(in *index, first int32) []IRow {
	live := 0
	for off := first; off >= 0 && int(off) < s.n; off = in.next[off] {
		if !s.dead.has(int(off)) {
			live++
		}
	}
	if live == 0 {
		return nil
	}
	out := make([]IRow, 0, live)
	for off := first; len(out) < live; off = in.next[off] {
		if !s.dead.has(int(off)) {
			out = append(out, s.rows.row(int(off), s.arity))
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

// Attach adds an existing table — typically one rebuilt by Replay during
// recovery; it fails on duplicate names.
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
