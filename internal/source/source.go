// Package source models the wrapped data sources of the Toorjah
// architecture (paper Section V, Fig. 5): every relation is reachable only
// through a Wrapper, whose single operation is an access — the probe of the
// relation with all its input arguments bound to constants, returning the
// matching tuples. Wrappers wrap local in-memory tables here (the paper used
// local PostgreSQL tables); a configurable per-access latency simulates the
// remote sources the paper targets, so that execution time is proportional
// to the number of accesses, as in the paper's Fig. 11.
//
// Who owns the memory of a round trip — the caller its bindings and result
// slots, the source the rows it puts into them — is part of the interface:
// see Wrapper.
//
// internal/source/sourcetest holds the contract test every implementation
// of Wrapper runs, and the counting and failure-injecting decorators the
// tests audit sources with.
package source

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"toorjah/internal/schema"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// Wrapper is a data source with access limitations, and Probe is its one
// operation: the paper's access, batched. A batch is a block: ids holds
// len(out) bindings of w = len(Relation().InputPositions()) interned values
// each, laid back to back, each binding's values parallel to the input
// positions; for a free relation (w = 0) ids is empty and len(out) is the
// number of accesses. Probe sets out[i] to every tuple matching the i-th
// binding, complete with input and output attributes. A batch of N bindings
// is exactly N accesses under the paper's cost model folded into one round
// trip — soundness and access accounting are unaffected, only the per-probe
// overhead (network latency, lock traffic) is amortised. A block whose
// length is not w·len(out) is refused with an error before anything is
// probed or any slot touched (CheckSlots); any other error fails the whole
// batch and leaves out unspecified. The context carries cancellation and the
// observability baggage of the query being served (trace ID, current span)
// through decorator stacks down to the source that pays the round trip; a
// source is free to ignore it.
//
// A round trip's memory is its caller's. The block and the result slots out
// both belong to the caller, which reuses them for its next batch: an
// implementation assigns every out[i] — nil when nothing matches, whatever
// the slot held before — and keeps neither slice, nor a part of one, once
// Probe returns. What it puts into the slots, the extracted rows, belongs to
// the source: rows may be shared between results and with the table they
// came from, are immutable, and stay valid for as long as anyone holds them.
// So a probe of a local table that matches nothing allocates nothing, and a
// decorator forwards its caller's block and slots instead of copying between
// its own and theirs.
//
// Tuples are interned end to end: the table source, the counting and caching
// decorators and the executors with their meter never construct a string.
// Strings enter and leave at two edges only — ProbeStrings, and the NDJSON
// codec inside remote.Source.
type Wrapper interface {
	Relation() *schema.Relation
	Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error
}

// CheckSlots reports a block that does not hold len(out) bindings of the
// relation's input width. Every implementation that reads the block or
// writes slots itself — rather than forwarding the batch whole — checks
// before it touches either.
func CheckSlots(rel *schema.Relation, ids []sym.ID, out [][]storage.IRow) error {
	if w := len(rel.InputPositions()); len(ids) != w*len(out) {
		return fmt.Errorf("source %s: a block of %d IDs for %d bindings of %d input arguments", rel.Name, len(ids), len(out), w)
	}
	return nil
}

// ProbeStrings probes w with boundary-form bindings: the values intern into
// one block on the way in and the extracted rows materialize on the way
// out. It serves callers that hold strings by nature — the /probe wire
// handler, tests — and is the only string door into a Wrapper. A binding of
// the wrong width is an error. It holds the symbol table from interning the
// bindings until the rows are strings — a hold of its own unless ctx says
// its caller's (sym.WithHold), so that /probe traffic whose holds overlap
// without a break still lets an overdue sweep run. A value the node never
// interned is interned, not skipped: the relation may be bound to a peer or
// to a wrapper of the embedder's, where it can still match rows.
func ProbeStrings(ctx context.Context, w Wrapper, bindings [][]string) ([][]storage.Row, error) {
	h := sym.Default.HoldFor(ctx)
	defer h.Release()
	rel := w.Relation()
	width := len(rel.InputPositions())
	ids := make([]sym.ID, 0, width*len(bindings))
	for i, b := range bindings {
		if len(b) != width {
			return nil, fmt.Errorf("source %s: binding %d has %d values for %d input arguments", rel.Name, i, len(b), width)
		}
		for _, v := range b {
			ids = append(ids, h.Intern(v))
		}
	}
	rows := make([][]storage.IRow, len(bindings))
	if err := w.Probe(ctx, ids, rows); err != nil {
		return nil, err
	}
	out := make([][]storage.Row, len(rows))
	for i, rs := range rows {
		out[i] = storage.MaterializeRows(rs)
	}
	return out, nil
}

// Versioned is implemented by sources whose extraction set carries a
// monotonically increasing epoch: the version number of the data behind the
// source. Two probes of the same binding at the same epoch are guaranteed
// to extract the same tuples, which is what lets the cross-query cache key
// entries by (access, epoch) and lets executions pin one version per
// relation. A source that cannot version itself simply does not implement
// the interface; EpochOf reports 0 for it, meaning "unversioned".
type Versioned interface {
	Epoch() uint64
}

// EpochOf returns w's current data epoch, or 0 when w is unversioned.
func EpochOf(w Wrapper) uint64 {
	if v, ok := w.(Versioned); ok {
		return v.Epoch()
	}
	return 0
}

// CanBlock reports whether a probe of w can make its caller wait: a source
// states it through an optional CanBlock() bool, beside Versioned, and one
// that does not can block. The executors probe a source that cannot block on
// their own goroutine, one round trip at a time — a goroutine per round trip
// would cost more than the probe.
func CanBlock(w Wrapper) bool {
	if b, ok := w.(interface{ CanBlock() bool }); ok {
		return b.CanBlock()
	}
	return true
}

// TableSource is a Wrapper over an in-memory table, with an optional
// simulated per-access latency. A live TableSource reads the table's
// current version on every access; Snapshot pins one version for the life
// of the returned source, so executors see a frozen relation while writers
// advance the table underneath.
type TableSource struct {
	rel     *schema.Relation
	table   *storage.Table
	pinned  *storage.Snapshot // nil = live: read the current version per access
	latency time.Duration
}

// NewTableSource wraps a table as a limited source. The table's arity must
// match the relation's.
func NewTableSource(rel *schema.Relation, table *storage.Table) (*TableSource, error) {
	if table.Arity != rel.Arity() {
		return nil, fmt.Errorf("source %s: table arity %d, relation arity %d",
			rel.Name, table.Arity, rel.Arity())
	}
	return &TableSource{rel: rel, table: table}, nil
}

// WithLatency returns a copy of the source that sleeps for d on every
// access, simulating a remote source.
func (s *TableSource) WithLatency(d time.Duration) *TableSource {
	return &TableSource{rel: s.rel, table: s.table, pinned: s.pinned, latency: d}
}

// Relation returns the wrapped relation schema.
func (s *TableSource) Relation() *schema.Relation { return s.rel }

// Table exposes the backing live table; the reference Datalog semantics of
// a plan reads full relation contents through it, and the facade's
// ingestion API mutates it.
func (s *TableSource) Table() *storage.Table { return s.table }

// Snapshot pins the table's current version: every access of the returned
// source reads that one immutable snapshot. Snapshotting an already pinned
// source returns it unchanged.
func (s *TableSource) Snapshot() Wrapper {
	if s.pinned != nil {
		return s
	}
	return &TableSource{rel: s.rel, table: s.table, pinned: s.table.Snapshot(), latency: s.latency}
}

// Epoch returns the version this source reads: the pinned snapshot's epoch,
// or the table's current one for a live source.
func (s *TableSource) Epoch() uint64 {
	if s.pinned != nil {
		return s.pinned.Epoch()
	}
	return s.table.Epoch()
}

// CanBlock reports whether the source simulates a remote one: only its
// latency makes a caller wait.
func (s *TableSource) CanBlock() bool { return s.latency > 0 }

// view returns the table version this access should read.
func (s *TableSource) view() *storage.Snapshot {
	if s.pinned != nil {
		return s.pinned
	}
	return s.table.Snapshot()
}

// Probe probes the table once per binding of the block in a single round
// trip, hashing the IDs as they stand and writing the matches into the
// caller's slots: the simulated latency is paid once for the whole batch
// (that is the point of batching a remote source) and one table version
// serves every binding of the batch.
func (s *TableSource) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	if err := CheckSlots(s.rel, ids, out); err != nil {
		return err
	}
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
	return s.view().SelectInto(s.rel.InputPositions(), ids, out)
}

// Stats aggregates the access accounting of one relation.
type Stats struct {
	// Accesses is the paper's cost metric: the number of bindings probed.
	// Batching never changes it — a batch of N bindings counts as N.
	Accesses int `json:"accesses"`
	// Batches is the number of round trips to the source; a single access
	// is a round trip of one, so Accesses/Batches is the mean batch size.
	Batches int `json:"batches"`
	// Tuples is the total tuples extracted, summed over accesses.
	Tuples int `json:"tuples"`
}

// Add accumulates another relation's counters into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Batches += o.Batches
	s.Tuples += o.Tuples
}

// Registry is the set of wrapped sources of a schema, by relation name.
type Registry struct {
	mu      sync.RWMutex
	sources map[string]Wrapper
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{sources: make(map[string]Wrapper)} }

// Bind registers the wrapper for its relation name, replacing any previous
// binding.
func (r *Registry) Bind(w Wrapper) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources[w.Relation().Name] = w
}

// Source returns the wrapper for a relation, or nil.
func (r *Registry) Source(name string) Wrapper {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sources[name]
}

// Names returns the sorted bound relation names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sources))
	for n := range r.sources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a registry in which every TableSource is pinned to its
// current data version (everything else passes through unchanged).
// Executors snapshot once per execution, so a query in flight keeps reading
// one consistent epoch of every relation while Insert/Delete batches
// advance the live tables.
func (r *Registry) Snapshot() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := NewRegistry()
	for name, w := range r.sources {
		if ts, ok := w.(*TableSource); ok {
			out.sources[name] = ts.Snapshot()
		} else {
			out.sources[name] = w
		}
	}
	return out
}

// FromDatabase builds a registry of plain table sources for every relation
// of the schema, reading rows from same-named tables of db. Relations
// without a table get an empty table.
func FromDatabase(sch *schema.Schema, db *storage.Database, latency time.Duration) (*Registry, error) {
	reg := NewRegistry()
	for _, rel := range sch.Relations() {
		t := db.Table(rel.Name)
		if t == nil {
			t = storage.NewTable(rel.Name, rel.Arity())
		}
		src, err := NewTableSource(rel, t)
		if err != nil {
			return nil, err
		}
		if latency > 0 {
			src = src.WithLatency(latency)
		}
		reg.Bind(src)
	}
	return reg, nil
}
