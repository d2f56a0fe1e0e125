package sourcetest

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// Access identifies one probe of a relation: the values binding its input
// positions, in input-position order. Free relations have exactly one
// access, the empty binding.
type Access struct {
	Relation string
	Binding  []string
}

// Key encodes the access for deduplication.
func (a Access) Key() string {
	return a.Relation + "\x00" + strings.Join(a.Binding, "\x00")
}

// String renders the access, e.g. "rev(2008)".
func (a Access) String() string {
	return fmt.Sprintf("%s(%s)", a.Relation, strings.Join(a.Binding, ","))
}

// Counter decorates a Wrapper with thread-safe access accounting, for tests
// to audit with: bound in a source's place it sees exactly what reaches the
// source, whatever sits above it. (The executors keep their own per-run
// Stats in their access path and wrap nothing.) A plain counter keeps the
// three integers of Stats and nothing per binding. An audited counter
// (keepLog) also records every access in order, from which the distinct
// bindings probed are read, to check that no access is ever repeated.
type Counter struct {
	inner source.Wrapper

	mu      sync.Mutex
	stats   source.Stats
	keepLog bool
	log     []Access // maintained only when keepLog is set
}

// NewCounter wraps w; when keepLog is set the counter is audited: every
// access is recorded in order.
func NewCounter(w source.Wrapper, keepLog bool) *Counter {
	return &Counter{inner: w, keepLog: keepLog}
}

// Relation returns the wrapped relation schema.
func (c *Counter) Relation() *schema.Relation { return c.inner.Relation() }

// Epoch forwards the wrapped source's data epoch (0 when unversioned), so
// the cross-query cache sees through the accounting decorator.
func (c *Counter) Epoch() uint64 { return source.EpochOf(c.inner) }

// CanBlock answers for the wrapped source.
func (c *Counter) CanBlock() bool { return source.CanBlock(c.inner) }

// Probe forwards the block to the wrapped source, recording one access per
// binding and one round trip for the batch — integer adds only, unless the
// counter is audited (the audit log materializes strings).
func (c *Counter) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	if err := c.inner.Probe(ctx, ids, out); err != nil {
		return err
	}
	tuples := 0
	for _, r := range out {
		tuples += len(r)
	}
	c.mu.Lock()
	c.stats.Accesses += len(out)
	c.stats.Batches++
	c.stats.Tuples += tuples
	if c.keepLog {
		rel := c.inner.Relation()
		w := len(rel.InputPositions())
		for i := range out {
			c.log = append(c.log, Access{Relation: rel.Name, Binding: sym.Strs(ids[i*w : i*w+w])})
		}
	}
	c.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the counters.
func (c *Counter) Stats() source.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DistinctAccesses returns the number of distinct access bindings probed,
// or -1 when the counter is not audited: a plain counter does not track
// bindings, and "unknown" must not read as "none".
func (c *Counter) DistinctAccesses() int {
	if set := c.AccessSet(); set != nil {
		return len(set)
	}
	return -1
}

// AccessSet returns the set of distinct accesses probed so far, as
// Access.Key() strings; nil when the counter is not audited.
func (c *Counter) AccessSet() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.keepLog {
		return nil
	}
	out := make(map[string]bool, len(c.log))
	for _, a := range c.log {
		out[a.Key()] = true
	}
	return out
}

// Log returns the recorded accesses (empty unless the counter is audited).
func (c *Counter) Log() []Access {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Access, len(c.log))
	copy(out, c.log)
	return out
}

// Reset clears counters and log.
func (c *Counter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = source.Stats{}
	c.log = nil
}

// Flaky decorates a wrapper with failure injection: the first FailAfter
// accesses succeed, every later access returns Err. Remote sources fail in
// practice (timeouts, rate limits); the executors must surface such errors
// without deadlocking or corrupting their caches, and the tests use this
// wrapper to prove it.
type Flaky struct {
	inner     source.Wrapper
	mu        sync.Mutex
	remaining int
	err       error
}

// NewFlaky wraps w so that accesses beyond failAfter return err.
func NewFlaky(w source.Wrapper, failAfter int, err error) *Flaky {
	return &Flaky{inner: w, remaining: failAfter, err: err}
}

// Relation returns the wrapped relation schema.
func (f *Flaky) Relation() *schema.Relation { return f.inner.Relation() }

// Epoch forwards the wrapped source's data epoch (0 when unversioned).
func (f *Flaky) Epoch() uint64 { return source.EpochOf(f.inner) }

// CanBlock answers for the wrapped source.
func (f *Flaky) CanBlock() bool { return source.CanBlock(f.inner) }

// Probe forwards to the wrapped source until the budget is exhausted: a
// batch spends one access of budget per binding, and the batch that
// overruns the budget fails whole and exhausts it. A malformed block is
// refused first and spends nothing.
func (f *Flaky) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	if err := source.CheckSlots(f.inner.Relation(), ids, out); err != nil {
		return err
	}
	f.mu.Lock()
	ok := f.remaining >= len(out)
	if ok {
		f.remaining -= len(out)
	} else {
		f.remaining = 0
	}
	f.mu.Unlock()
	if !ok {
		return f.err
	}
	return f.inner.Probe(ctx, ids, out)
}

// Counted returns a registry in which every source of r is wrapped in a
// fresh Counter, together with the counters by relation name; r itself is
// left as it was.
func Counted(r *source.Registry, keepLog bool) (*source.Registry, map[string]*Counter) {
	out := source.NewRegistry()
	counters := make(map[string]*Counter)
	for _, name := range r.Names() {
		c := NewCounter(r.Source(name), keepLog)
		counters[name] = c
		out.Bind(c)
	}
	return out, counters
}
