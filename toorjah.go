// Package toorjah is a Go implementation of Toorjah, the query answering
// and optimization system of Andrea Calì and Davide Martinenghi, "Querying
// Data under Access Limitations", ICDE 2008.
//
// Toorjah answers conjunctive queries over relational sources that can only
// be probed through access patterns: some arguments must be bound by a
// constant before a source returns anything (as with web forms or wrapped
// legacy files). Answering such queries may require recursive query plans
// that probe relations the query never mentions; the dominant cost is the
// number of accesses. Toorjah builds a dependency graph of the schema and
// query, prunes it with a greatest-fixpoint algorithm to the provably
// relevant sources and value flows, and executes a ⊂-minimal plan — one
// that no other plan strictly beats on accesses on every database instance
// — with early failure detection, per-relation access deduplication, and
// optionally a parallel pipelined engine that streams answers as they are
// found.
//
// # Quick start
//
//	sch, _ := toorjah.ParseSchema(`
//	    artist^ioo(Artist, Nation, Year)
//	    song^oio(Title, Year, Artist)
//	    album^oo(Artist, Album)`)
//	sys := toorjah.NewSystem(sch)
//	sys.BindRows("artist", rows...)            // or sys.Bind(rel, wrapper)
//	q, _ := sys.Prepare("q(N) :- artist(A, N, Y1), song(volare, Y2, A)")
//	res, _ := q.Execute(ctx)
//	fmt.Println(res.SortedAnswers(), res.TotalAccesses())
//
// Prepare plans once per query shape. To the planner a constant is only an
// artificial relation holding one fact; nothing it builds depends on the
// value. Queries that differ only in their constants therefore share one
// plan, kept in the System's bounded plan cache, and bind their constants at
// execution: preparing a query of a known shape costs a parse and a lookup.
//
// Execute is context-first: the context cancels the extraction (returning
// the answers derived so far as a truncated, sound subset) and carries the
// query's observability baggage down to the sources. Functional options
// select the executor and shape the run — WithExecutor picks the
// fast-failing batch strategy (default), the parallel pipelined engine or
// the naive reference algorithm; OnAnswer — or OnAnswers, a burst at a
// time, the unit the engine delivers in — streams answers as they are
// derived (and alone implies the pipelined engine); WithLimit caps the
// answers; WithExecOptions opens the full executor-level Options block:
//
//	res, _ = q.Execute(ctx, toorjah.WithLimit(10),
//	    toorjah.OnAnswer(func(t toorjah.Tuple) { fmt.Println(t.Strings()) }))
//
// Unions of conjunctive queries are first-class too: PrepareUCQ takes one
// disjunct per line (same head predicate and arity), and the resulting
// UnionQuery executes its disjuncts concurrently — or streams deduplicated
// union answers via OnAnswer — with per-relation statistics of the whole
// union:
//
//	u, _ := sys.PrepareUCQ("q(N) :- artist(A, N, Y)\nq(N) :- song(N, Y, A)")
//	ures, _ := u.Execute(ctx)
//
// A System can keep a cross-query access cache (see WithCache): since the
// dominant cost is the number of accesses, a long-running service that
// remembers extractions across queries — with LRU bounds, TTL expiry,
// negative-result caching and collapsing of concurrent identical probes —
// answers repeat traffic without touching the sources at all. cmd/toorjahd
// serves exactly that setup over HTTP.
//
// First-time probes are batched (see WithMaxBatch): up to MaxBatch access
// bindings of one relation ride a single source round trip, amortising
// per-probe latency without changing answers or access counts — a batch is
// just N accesses. Result.Stats reports the round trips as Batches.
//
// Sources need not be local at all (see AttachRemote): relations served by a
// remote toorjahd peer attach as federated sources probed over HTTP — a
// batch of bindings per round trip, with retries, circuit breakers and
// connection pooling — so a deployment can shard its relations across
// nodes and answer queries over the union, caching and batching included.
//
// Relations are live: System.Insert, System.Delete and System.LoadCSV
// mutate a bound relation's table while queries run. Every mutating batch
// advances the relation's epoch (see RelationEpoch / DataInfo); executors
// pin one immutable version of every relation per execution, and the
// cross-query cache keys entries by epoch, so concurrent queries always
// answer over a consistent snapshot and post-mutation queries see the new
// rows — no rebind, no restart, no explicit invalidation needed. toorjahd
// exposes the same capability over HTTP as POST /ingest.
//
// The internal packages expose every stage of the pipeline (schema, cq,
// dgraph, plan, exec, …) for programmatic use; this package is the
// high-level façade. ARCHITECTURE.md maps the paper's concepts onto the
// packages.
package toorjah

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"toorjah/internal/cache"
	"toorjah/internal/core"
	"toorjah/internal/cq"
	"toorjah/internal/datalog"
	"toorjah/internal/dgraph"
	"toorjah/internal/exec"
	"toorjah/internal/plan"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
)

// Re-exported types, so that most applications only import this package.
type (
	// Schema is a database schema of relations with access patterns.
	Schema = schema.Schema
	// Relation is one relation schema.
	Relation = schema.Relation
	// CQ is a conjunctive query.
	CQ = cq.CQ
	// UCQ is a parsed union of conjunctive queries (see PrepareUCQFrom).
	UCQ = cq.UCQ
	// Result is the outcome of one execution.
	Result = exec.Result
	// Tuple is one answer row, interned: resolve it (Strings) while its
	// Result is reachable, or inside the OnAnswer callback that handed it.
	Tuple = datalog.Tuple
	// Plan is a ⊂-minimal query plan.
	Plan = plan.Plan
	// Wrapper is a data source with access limitations.
	Wrapper = source.Wrapper
	// Row is one stored tuple.
	Row = storage.Row
	// CommitEvent is one applied mutation batch, as delivered to a commit
	// hook (see SetCommitHook): the rows that actually changed a relation
	// and the epoch the batch advanced it to.
	CommitEvent = storage.CommitEvent
	// Options is the unified executor-level configuration (ablation
	// switches, cross-query cache, batching, union parallelism); see
	// WithExecOptions.
	Options = exec.Options
	// CacheOptions configures the cross-query access cache.
	CacheOptions = cache.Options
	// AccessCache is a shared cross-query access cache (see WithCache).
	AccessCache = cache.Cache
	// CacheStats is the per-relation accounting of an access cache.
	CacheStats = cache.RelStats
	// SourceStats is the per-relation access accounting of one execution
	// (probes, source round trips, extracted tuples).
	SourceStats = source.Stats
)

// ParseSchema parses a schema in the paper's notation, one relation per
// line: "rev^ooi(Person, ConfName, Year)".
func ParseSchema(text string) (*Schema, error) { return schema.Parse(text) }

// System binds a schema to data sources and prepares queries against them.
// With a cache configured (WithCache), every execution — whichever
// executor, CQ or UCQ — serves its accesses through the shared cross-query
// cache; Result.Stats then counts only the probes that actually reached the
// sources, so a fully cached run reports zero accesses.
type System struct {
	sch   *schema.Schema
	reg   *source.Registry
	cache *cache.Cache
	// latency is applied to sources bound through BindRows/BindTable,
	// simulating remote sources (WithLatency).
	latency time.Duration
	// maxBatch is the default batch bound of every execution (WithMaxBatch).
	maxBatch int

	// Federation state (see remote.go): client tuning for attached peers,
	// and the attached peers.
	remoteOpts RemoteOptions
	remoteMu   sync.Mutex
	peers      []*RemotePeer

	// commitHook, when set (SetCommitHook), is installed on every local
	// table the system binds — the write-ahead-log attachment point.
	commitHook func(CommitEvent)

	// plans holds what Prepare has planned, by query shape.
	plans planCache
}

// SystemOption configures a System at construction.
type SystemOption func(*System)

// WithCache equips the system with a private cross-query access cache.
func WithCache(opts CacheOptions) SystemOption {
	return func(s *System) { s.cache = cache.New(opts) }
}

// WithLatency sets the simulated per-access latency of sources bound
// through BindRows/BindTable/BindDatabase.
func WithLatency(d time.Duration) SystemOption {
	return func(s *System) { s.latency = d }
}

// WithMaxBatch sets the batch bound of every execution: up to n access
// bindings of one relation ride a single source round trip. Batching never
// changes answers or access counts — a batch is just N accesses — it only
// amortises per-probe overhead. 0 keeps the executor default (16); negative
// disables batching.
func WithMaxBatch(n int) SystemOption {
	return func(s *System) { s.maxBatch = n }
}

// NewSystem creates a system over the schema with no sources bound.
func NewSystem(sch *Schema, opts ...SystemOption) *System {
	s := &System{sch: sch, reg: source.NewRegistry()}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Schema returns the system's schema.
func (s *System) Schema() *Schema { return s.sch }

// AccessCache returns the system's cross-query cache, or nil when none is
// configured; use it to read hit/miss statistics or to invalidate entries.
func (s *System) AccessCache() *AccessCache { return s.cache }

// Bind attaches a wrapper as the source of its relation, dropping any
// cached accesses of that relation. Executions already in flight complete
// against the sources they started with and cache nothing of that relation
// from here on: the cache starts a new incarnation of it
// (AccessCache.Invalidate), which only executions that read the new source
// can feed — rows of the previous source do not outlive a rebind in the
// cache, under live traffic either.
func (s *System) Bind(w Wrapper) {
	if s.commitHook != nil {
		if ts, ok := w.(*source.TableSource); ok {
			ts.Table().SetCommitHook(s.commitHook)
		}
	}
	// Swap first, invalidate second: an execution takes its cache wrapper
	// before it reads its source (exec.openAccess), so one that holds the new
	// incarnation reads the new source; one that reads the new source between
	// the two steps under the old incarnation merely caches nothing.
	s.reg.Bind(w)
	if s.cache != nil {
		s.cache.Invalidate(w.Relation().Name)
	}
}

// BindTable attaches an in-memory table as the source of relation name.
func (s *System) BindTable(name string, t *storage.Table) error {
	rel := s.sch.Relation(name)
	if rel == nil {
		return fmt.Errorf("toorjah: unknown relation %s", name)
	}
	src, err := source.NewTableSource(rel, t)
	if err != nil {
		return err
	}
	if s.latency > 0 {
		src = src.WithLatency(s.latency)
	}
	s.Bind(src)
	return nil
}

// BindRows attaches the given rows as the source of relation name.
func (s *System) BindRows(name string, rows ...Row) error {
	rel := s.sch.Relation(name)
	if rel == nil {
		return fmt.Errorf("toorjah: unknown relation %s", name)
	}
	t := storage.NewTable(name, rel.Arity())
	t.InsertAll(rows)
	return s.BindTable(name, t)
}

// BindDatabase attaches every relation to the same-named table of db
// (missing tables become empty sources), each as Bind attaches one.
func (s *System) BindDatabase(db *storage.Database) error {
	reg, err := source.FromDatabase(s.sch, db, s.latency)
	if err != nil {
		return err
	}
	for _, name := range reg.Names() {
		s.Bind(reg.Source(name))
	}
	return nil
}

// SetCommitHook installs fn on every local table the system has bound or
// will bind: each applied Insert/Delete batch is delivered, with its
// post-batch epoch, before the mutating call returns — so an ingest
// acknowledgement cannot outrun whatever fn persists. This is how the
// write-ahead log observes the system. Install the hook while the system
// is quiescent (at boot, before serving traffic); a nil fn is ignored
// rather than uninstalling, keeping the zero value inert.
func (s *System) SetCommitHook(fn func(CommitEvent)) {
	if fn == nil {
		return
	}
	s.commitHook = fn
	s.applyCommitHook()
}

// applyCommitHook sweeps the hook onto every currently bound local table.
func (s *System) applyCommitHook() {
	if s.commitHook == nil {
		return
	}
	for _, name := range s.reg.Names() {
		if ts, ok := s.reg.Source(name).(*source.TableSource); ok {
			ts.Table().SetCommitHook(s.commitHook)
		}
	}
}

// DataSnapshot reads a consistent pinned version of every relation backed
// by a local table: its live rows as one insert batch at its epoch
// (storage.Table.Batch), by relation name. Each relation's batch is
// internally consistent (one immutable snapshot per table); the write-ahead
// log uses this as its snapshot source, where cross-relation skew is
// harmless because replay reconciles per relation by epoch.
func (s *System) DataSnapshot() map[string]CommitEvent {
	out := make(map[string]CommitEvent)
	for _, name := range s.reg.Names() {
		if ts, ok := s.reg.Source(name).(*source.TableSource); ok && s.sch.Relation(name) != nil {
			out[name] = ts.Table().Batch()
		}
	}
	return out
}

// mutableTable returns the live table behind a relation, auto-binding an
// empty one when the relation has no source yet; relations sourced from a
// peer or a custom wrapper have no local table to mutate.
func (s *System) mutableTable(name string) (*storage.Table, error) {
	rel := s.sch.Relation(name)
	if rel == nil {
		return nil, fmt.Errorf("toorjah: unknown relation %s", name)
	}
	src := s.reg.Source(name)
	if src == nil {
		if err := s.BindRows(name); err != nil {
			return nil, err
		}
		src = s.reg.Source(name)
	}
	ts, ok := src.(*source.TableSource)
	if !ok {
		return nil, fmt.Errorf("toorjah: relation %s is not backed by a local table", name)
	}
	return ts.Table(), nil
}

// Insert appends rows to the live table of a relation, as one batch:
// one copy-on-write step, one new epoch (when anything was actually new —
// duplicates are discarded). It returns the number of rows added. Queries
// in flight keep answering over the version they pinned at start; queries
// prepared earlier need no re-Prepare — their next execution reads the new
// version. The cross-query cache is not told: it files accesses under the
// epoch they were made at, and the relation's first read at the new epoch
// frees what this batch made unreachable.
func (s *System) Insert(name string, rows ...Row) (int, error) {
	t, err := s.mutableTable(name)
	if err != nil {
		return 0, err
	}
	if err := validateRows(name, rows, t.Arity); err != nil {
		return 0, err
	}
	return t.InsertAll(rows), nil
}

// validateRows rejects rows a table could not store faithfully: wrong
// arity, and values containing NUL. Storage itself does not care — rows
// are interned to symbol IDs and indexed on packed integer keys — but
// storage.Row.Key joins values with NUL and callers key rows by it (a
// result's answer set, for one), so a NUL inside a value would let two
// distinct rows collide (unreachable from CSV, reachable from JSON
// ingestion).
func validateRows(name string, rows []Row, arity int) error {
	for _, r := range rows {
		if len(r) != arity {
			return fmt.Errorf("toorjah: relation %s: row %v has arity %d, want %d",
				name, []string(r), len(r), arity)
		}
		for _, v := range r {
			if strings.ContainsRune(v, '\x00') {
				return fmt.Errorf("toorjah: relation %s: row value contains a NUL byte", name)
			}
		}
	}
	return nil
}

// Delete removes rows from the live table of a relation, as one batch (one
// new epoch when anything was actually removed), returning the number of
// rows removed. The same consistency contract as Insert applies.
func (s *System) Delete(name string, rows ...Row) (int, error) {
	t, err := s.mutableTable(name)
	if err != nil {
		return 0, err
	}
	// Same validation as Insert: a malformed row must be an error, not a
	// silent "row was absent" no-op.
	if err := validateRows(name, rows, t.Arity); err != nil {
		return 0, err
	}
	return t.DeleteAll(rows), nil
}

// LoadCSV parses CSV data (the tolerant dialect of storage.ReadCSVRows) and
// inserts the rows into the relation's live table as one batch, returning
// the number of rows added. Nothing is applied when parsing fails partway.
func (s *System) LoadCSV(name string, r io.Reader) (int, error) {
	rel := s.sch.Relation(name)
	if rel == nil {
		return 0, fmt.Errorf("toorjah: unknown relation %s", name)
	}
	rows, err := storage.ReadCSVRows(name, rel.Arity(), r)
	if err != nil {
		return 0, err
	}
	return s.Insert(name, rows...)
}

// RelationEpoch returns a relation's current data epoch: 0 when the
// relation is unbound or its source is unversioned, otherwise the version
// number advanced by every mutating batch (local tables start at 1;
// federated sources report the peer's last observed epoch).
func (s *System) RelationEpoch(name string) uint64 {
	src := s.reg.Source(name)
	if src == nil {
		return 0
	}
	return source.EpochOf(src)
}

// RelationInfo describes the live data behind one bound relation.
type RelationInfo struct {
	// Epoch is the relation's data version; 0 means unversioned.
	Epoch uint64
	// Rows is the live row count, or -1 when the source is not a local
	// table (remote peers and custom wrappers do not expose it).
	Rows int
	// ModifiedAt is when the local table's data last changed — the initial
	// load counts, so it is zero only for an empty never-touched table or
	// when the source is not a local table.
	ModifiedAt time.Time
	// Local reports whether the relation is served from a local table.
	Local bool
}

// DataInfo snapshots the data freshness of every bound relation: epoch,
// live row count and last-modification time. toorjahd serves it on
// /metrics as the toorjah_relation_* gauges.
func (s *System) DataInfo() map[string]RelationInfo {
	out := make(map[string]RelationInfo)
	for _, name := range s.reg.Names() {
		src := s.reg.Source(name)
		info := RelationInfo{Epoch: source.EpochOf(src), Rows: -1}
		// Whatever Insert can mutate (mutableTable), DataInfo reports as
		// local.
		if ts, ok := src.(*source.TableSource); ok {
			snap := ts.Table().Snapshot()
			info.Rows = snap.Len()
			info.ModifiedAt = snap.ModifiedAt()
			info.Local = true
		}
		out[name] = info
	}
	return out
}

// execOpts threads the system's cross-query cache and batch bound into
// executor options.
func (s *System) execOpts(o Options) Options {
	if o.Cache == nil {
		o.Cache = s.cache
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = s.maxBatch
	}
	return o
}

// ensureBound verifies every schema relation has a source, auto-binding
// empty sources for the missing ones.
func (s *System) ensureBound() error {
	for _, rel := range s.sch.Relations() {
		if s.reg.Source(rel.Name) == nil {
			if err := s.BindRows(rel.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// maxPlannedShapes bounds the plan cache. A shape is a query text less its
// constants, so an application has as many as it has query templates — but
// a client is free to send any number, and beyond the cap the shape planned
// longest ago is dropped (it is rebuilt if it comes back).
const maxPlannedShapes = 1024

// planCache is the system's one plan cache: everything Prepare has planned,
// keyed by query shape (cq.AppendShapeKey). A shape's entry is the
// validated, minimized, optimized and planned slot form, in which constants
// are slots and no value occurs; queries that differ only in their
// constants share it, and nothing mutates it once cached.
type planCache struct {
	mu     sync.Mutex
	shapes map[string]*core.Pipeline
	// order holds the keys of shapes in insertion order, as a ring once it
	// is full: next is the oldest entry, the one to evict.
	order []string
	next  int

	hits, misses, evictions uint64
}

// get returns the cached shape for a key, or nil, and counts the outcome.
func (c *planCache) get(key []byte) *core.Pipeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.shapes[string(key)]
	if p == nil {
		c.misses++
	} else {
		c.hits++
	}
	return p
}

// add caches a freshly planned shape and returns the entry to use: when a
// concurrent Prepare planned the same shape first, that one — every query of
// a shape shares one pipeline.
func (c *planCache) add(key string, p *core.Pipeline) *core.Pipeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	if first := c.shapes[key]; first != nil {
		return first
	}
	if c.shapes == nil {
		c.shapes = make(map[string]*core.Pipeline)
	}
	if len(c.order) < maxPlannedShapes {
		c.order = append(c.order, key)
	} else {
		delete(c.shapes, c.order[c.next])
		c.evictions++
		c.order[c.next] = key
		c.next = (c.next + 1) % maxPlannedShapes
	}
	c.shapes[key] = p
	return p
}

// PlanCacheStats is the accounting of a system's plan cache.
type PlanCacheStats struct {
	// Shapes is the number of query shapes currently planned.
	Shapes int
	// Hits and Misses count the Prepare calls (one per disjunct of a union)
	// that found their shape planned, or had to plan it; Evictions the
	// shapes dropped at the cap.
	Hits, Misses, Evictions uint64
}

// PlanCacheStats reports the plan cache's size and counters.
func (s *System) PlanCacheStats() PlanCacheStats {
	c := &s.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Shapes: len(c.shapes), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// Query is a prepared query: the shared prepared form of its shape, and its
// own constants by slot, which every execution binds the plan to.
type Query struct {
	sys      *System
	pipeline *core.Pipeline
	consts   []string
}

// Prepare validates the query text against the schema and builds the
// optimized plan — once per query shape: a query that differs from an
// earlier one only in its constants reuses that one's plan, so preparing it
// costs a parse and a lookup.
func (s *System) Prepare(queryText string) (*Query, error) {
	q, err := cq.Parse(queryText)
	if err != nil {
		return nil, err
	}
	return s.PrepareCQ(q)
}

// PrepareCQ is Prepare for an already-parsed query.
func (s *System) PrepareCQ(q *CQ) (*Query, error) {
	out := new(Query)
	if err := s.prepareCQ(q, out); err != nil {
		return nil, err
	}
	return out, nil
}

// prepareCQ is PrepareCQ into a Query the caller holds.
func (s *System) prepareCQ(q *CQ, out *Query) error {
	var buf [256]byte
	key, consts := cq.AppendShapeKey(buf[:0], q)
	p := s.plans.get(key)
	if p == nil {
		var err error
		if p, err = s.planShape(string(key), q); err != nil {
			return err
		}
	}
	*out = Query{sys: s, pipeline: p, consts: consts}
	return nil
}

// planShape plans the shape of q, which the cache does not hold, and caches
// it. The planner is given the slot form, so nothing it builds can hold a
// constant of q.
func (s *System) planShape(key string, q *CQ) (*core.Pipeline, error) {
	if err := s.ensureBound(); err != nil {
		return nil, err
	}
	slotForm, _ := cq.Shape(q)
	p, err := core.Prepare(s.sch, slotForm)
	if err != nil {
		// A query the schema refuses is reported as its author wrote it,
		// constants and all, not in terms of slots.
		if _, asWritten := cq.Validate(q, s.sch); asWritten != nil {
			return nil, asWritten
		}
		return nil, err
	}
	return s.plans.add(key, p), nil
}

// Answerable reports whether the query can return any answer on any
// instance under the access limitations.
func (q *Query) Answerable() bool { return q.pipeline.Answerable() }

// Plan returns the ⊂-minimal plan, bound to the query's constants, or nil
// for non-answerable queries. Its String is the query's explain output: the
// artificial relations of the constants are named by slot (l_0, l_1, …) and
// a legend line says what each holds for this query.
func (q *Query) Plan() *Plan {
	if q.pipeline.Plan == nil {
		return nil
	}
	return q.pipeline.Plan.Bind(q.consts)
}

// RelevantRelations returns the relations the optimized plan may access
// (the artificial relations of the query's constants included, by slot).
func (q *Query) RelevantRelations() []string { return q.pipeline.Opt.RelevantRelations() }

// IrrelevantRelations returns the queryable relations the optimization
// proved useless for this query.
func (q *Query) IrrelevantRelations() []string { return q.pipeline.Opt.IrrelevantRelations() }

// Orderable reports whether the (minimized) query is executable without
// recursion by some left-to-right ordering of its own atoms that respects
// the access patterns; when it is not — like the paper's Example 1 — the
// recursive plan of Execute is the only way to obtain answers.
func (q *Query) Orderable() bool {
	_, ok := plan.Orderable(q.pipeline.Query, q.sys.sch)
	return ok
}

// IsConnectionQuery reports whether the query falls in the restricted
// connection-query class of earlier relevance work (Section VI); Toorjah
// handles arbitrary conjunctive queries.
func (q *Query) IsConnectionQuery() bool {
	return cq.IsConnectionQuery(q.pipeline.Query, q.sys.sch)
}

// ForAllMinimal reports whether the plan is ∀-minimal: no other plan makes
// fewer accesses on any instance (Section IV: this holds exactly when the
// source ordering is unique).
func (q *Query) ForAllMinimal() bool {
	return q.pipeline.Plan != nil && q.pipeline.Plan.ForAllMinimal()
}

// DGraphDOT renders the query's full d-graph in Graphviz DOT format;
// deleted arcs are dashed. The source of each constant is labelled with its
// slot's relation and the value it holds for this query.
func (q *Query) DGraphDOT() string {
	return dgraph.DOT(q.pipeline.Graph, q.pipeline.Opt.Solution, q.consts)
}

// OptimizedDOT renders the optimized d-graph in Graphviz DOT format.
func (q *Query) OptimizedDOT() string {
	return dgraph.DOTOptimized(q.pipeline.Opt, q.consts)
}

// emptyResult is the constant answer of non-answerable queries.
func (q *Query) emptyResult() *Result {
	query := q.pipeline.Query
	return &Result{
		Answers: datalog.NewRelation(query.Name, len(query.Head)),
		Stats:   map[string]source.Stats{},
	}
}
