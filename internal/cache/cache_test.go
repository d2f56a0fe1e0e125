package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// access probes w with one boundary-form binding: a batch of one through
// source.ProbeStrings.
func access(w source.Wrapper, binding ...string) ([]storage.Row, error) {
	rows, err := source.ProbeStrings(context.Background(), w, [][]string{binding})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// stored peeks at the cache without recording a hit or touching the LRU
// order: it reports whether the access currently has a live entry at the
// given data epoch (0 = unversioned).
func stored(c *Cache, rel string, epoch uint64, binding ...string) bool {
	return storedIDs(c, rel, epoch, sym.InternAll(binding))
}

func storedIDs(c *Cache, rel string, epoch uint64, ids []sym.ID) bool {
	r, h := c.relation(rel), sym.HashIDs(ids)
	sh := c.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	g := sh.rel(r.n).generation(version{r, r.inc.Load(), epoch}, false)
	if g == nil {
		return false
	}
	_, i := sh.find(g, h, ids)
	return i >= 0 && sh.slab[i].flight == nil && (sh.slab[i].expires == 0 || c.now() < sh.slab[i].expires)
}

// testSource builds a Counter-wrapped table source over relation text like
// "r^i(A)" with the given rows; the counter observes the probes that reach
// the table through the cache.
func testSource(t *testing.T, relText string, rows ...storage.Row) (*sourcetest.Counter, *schema.Relation) {
	t.Helper()
	sch, err := schema.Parse(relText)
	if err != nil {
		t.Fatal(err)
	}
	rel := sch.Relations()[0]
	tab := storage.NewTable(rel.Name, rel.Arity())
	tab.InsertAll(rows)
	src, err := source.NewTableSource(rel, tab)
	if err != nil {
		t.Fatal(err)
	}
	return sourcetest.NewCounter(src, true), rel
}

func TestHitMissAndStats(t *testing.T) {
	ctr, _ := testSource(t, "r^io(A, B)", storage.Row{"a", "1"}, storage.Row{"b", "2"})
	c := New(Options{})
	w := c.Wrap(ctr)

	for i := 0; i < 3; i++ {
		rows, err := access(w, "a")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][1] != "1" {
			t.Fatalf("access %d: rows = %v", i, rows)
		}
	}
	if got := ctr.Stats().Accesses; got != 1 {
		t.Errorf("underlying accesses = %d, want 1", got)
	}
	st := c.Snapshot()["r"]
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestNegativeCaching(t *testing.T) {
	ctr, _ := testSource(t, "r^io(A, B)") // empty table: every access is negative
	c := New(Options{})
	w := c.Wrap(ctr)
	for i := 0; i < 2; i++ {
		if rows, err := access(w, "zzz"); err != nil || len(rows) != 0 {
			t.Fatalf("rows=%v err=%v", rows, err)
		}
	}
	if got := ctr.Stats().Accesses; got != 1 {
		t.Errorf("negative result not cached: %d underlying accesses", got)
	}
}

func TestTTLExpiry(t *testing.T) {
	ctr, _ := testSource(t, "r^io(A, B)", storage.Row{"a", "1"})
	now := time.Unix(1000, 0)
	c := New(Options{TTL: time.Minute, now: func() time.Time { return now }})
	w := c.Wrap(ctr)

	access(w, "a") // positive, TTL 1m
	access(w, "x") // negative, TTL 1m
	if got := ctr.Stats().Accesses; got != 2 {
		t.Fatalf("underlying = %d", got)
	}

	now = now.Add(30 * time.Second) // both alive
	access(w, "a")
	access(w, "x")
	if got := ctr.Stats().Accesses; got != 2 {
		t.Errorf("within TTL: underlying = %d, want 2", got)
	}

	now = now.Add(2 * time.Minute) // everything expired
	access(w, "a")
	access(w, "x")
	if got := ctr.Stats().Accesses; got != 4 {
		t.Errorf("after TTL: underlying = %d, want 4", got)
	}
	if st := c.Snapshot()["r"]; st.Expirations != 2 {
		t.Errorf("expirations = %d, want 2", st.Expirations)
	}
}

func TestLRUEviction(t *testing.T) {
	ctr, _ := testSource(t, "r^io(A, B)",
		storage.Row{"a", "1"}, storage.Row{"b", "2"}, storage.Row{"c", "3"})
	c := New(Options{Capacity: 2, shards: 1})
	w := c.Wrap(ctr)

	access(w, "a")
	access(w, "b")
	access(w, "a") // refresh a: b is now LRU
	access(w, "c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if stored(c, "r", source.EpochOf(ctr), "b") {
		t.Error("b should have been evicted")
	}
	if !stored(c, "r", source.EpochOf(ctr), "a") {
		t.Error("a should have survived (recently used)")
	}
	if st := c.Snapshot()["r"]; st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	access(w, "b") // re-probe after eviction
	if got := ctr.Stats().Accesses; got != 4 {
		t.Errorf("underlying = %d, want 4", got)
	}
}

// TestCapacityIsExact: the shard bounds sum to Capacity, so however the
// bindings hash, five times Capacity distinct probes leave at most Capacity
// entries resident — also when Capacity is not a multiple of the shard count,
// or is below it.
func TestCapacityIsExact(t *testing.T) {
	for _, capacity := range []int{10, 100, 1000, DefaultCapacity} {
		ctr, _ := testSource(t, "r^io(A, B)") // every extraction is empty, and cached
		c := New(Options{Capacity: capacity})
		w := c.Wrap(ctr)
		batch := make([]sym.ID, 0, 64)
		for i := 0; i < 5*capacity; i++ {
			batch = append(batch, sym.Intern(fmt.Sprintf("k%d", i)))
			if len(batch) == cap(batch) || i == 5*capacity-1 {
				if err := w.Probe(context.Background(), batch, make([][]storage.IRow, len(batch))); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if got := c.Len(); got > capacity || got == 0 {
			t.Errorf("Capacity %d: %d entries resident", capacity, got)
		}
	}
}

func TestInvalidateAndClear(t *testing.T) {
	ctrR, _ := testSource(t, "r^io(A, B)", storage.Row{"a", "1"})
	ctrS, _ := testSource(t, "s^io(A, B)", storage.Row{"a", "9"})
	c := New(Options{})
	wr, ws := c.Wrap(ctrR), c.Wrap(ctrS)
	access(wr, "a")
	access(ws, "a")
	if n := c.Invalidate("r"); n != 1 {
		t.Errorf("Invalidate(r) = %d, want 1", n)
	}
	if !stored(c, "s", source.EpochOf(ctrS), "a") {
		t.Error("s entry lost by Invalidate(r)")
	}
	access(wr, "a")
	if got := ctrR.Stats().Accesses; got != 2 {
		t.Errorf("after invalidate: underlying r accesses = %d, want 2", got)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Errorf("after Clear: Len = %d", c.Len())
	}
}

func TestErrorsNotCached(t *testing.T) {
	ctr, _ := testSource(t, "r^io(A, B)", storage.Row{"a", "1"})
	boom := errors.New("boom")
	flaky := sourcetest.NewFlaky(ctr, 0, boom) // every access fails
	c := New(Options{})
	w := c.Wrap(flaky)
	for i := 0; i < 2; i++ {
		if _, err := access(w, "a"); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if c.Len() != 0 {
		t.Errorf("error result cached: Len = %d", c.Len())
	}
	if st := c.Snapshot()["r"]; st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (errors retried)", st.Misses)
	}
}

// slowWrapper delays every access so that concurrent probes overlap.
type slowWrapper struct {
	inner source.Wrapper
	d     time.Duration
}

func (s *slowWrapper) Relation() *schema.Relation { return s.inner.Relation() }
func (s *slowWrapper) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	time.Sleep(s.d)
	return s.inner.Probe(ctx, ids, out)
}

func TestSingleflightCollapsesConcurrentProbes(t *testing.T) {
	ctr, _ := testSource(t, "r^io(A, B)", storage.Row{"a", "1"})
	c := New(Options{})
	w := c.Wrap(&slowWrapper{inner: ctr, d: 20 * time.Millisecond})

	const G = 16
	var wg sync.WaitGroup
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := access(w, "a")
			if err != nil || len(rows) != 1 {
				t.Errorf("rows=%v err=%v", rows, err)
			}
		}()
	}
	wg.Wait()
	if got := ctr.Stats().Accesses; got != 1 {
		t.Errorf("underlying accesses = %d, want 1 (singleflight)", got)
	}
	st := c.Snapshot()["r"]
	if st.Misses != 1 || st.Hits+st.Collapsed != G-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits+collapsed", st, G-1)
	}
}

// TestInvalidateDuringProbeSkipsStore: a probe in flight when Invalidate
// runs must not re-populate the cache with its (possibly stale) extraction.
func TestInvalidateDuringProbeSkipsStore(t *testing.T) {
	ctr, _ := testSource(t, "r^io(A, B)", storage.Row{"a", "1"})
	c := New(Options{})
	w := c.Wrap(&slowWrapper{inner: ctr, d: 60 * time.Millisecond})

	done := make(chan struct{})
	go func() {
		defer close(done)
		if rows, err := access(w, "a"); err != nil || len(rows) != 1 {
			t.Errorf("rows=%v err=%v", rows, err)
		}
	}()
	time.Sleep(15 * time.Millisecond) // probe is now sleeping in the source
	c.Invalidate("r")
	<-done
	if stored(c, "r", 0, "a") {
		t.Error("extraction stored despite invalidation during the probe")
	}
	// The next access re-probes and stores normally — through a wrapper made
	// for the new incarnation, as a rebind's next execution makes one; the old
	// one belongs to the binding that was invalidated and caches nothing.
	access(c.Wrap(&slowWrapper{inner: ctr}), "a")
	if !stored(c, "r", 0, "a") {
		t.Error("cache did not recover after the skipped store")
	}
	if got := ctr.Stats().Accesses; got != 2 {
		t.Errorf("underlying accesses = %d, want 2", got)
	}
}

// panicOnceWrapper panics on its first access, then delegates.
type panicOnceWrapper struct {
	inner    source.Wrapper
	panicked bool
}

func (p *panicOnceWrapper) Relation() *schema.Relation { return p.inner.Relation() }
func (p *panicOnceWrapper) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	if !p.panicked {
		p.panicked = true
		panic("wrapper bug")
	}
	return p.inner.Probe(ctx, ids, out)
}

// TestPanicDoesNotWedgeKey: a panicking wrapper must not leave the access
// key's singleflight permanently blocked; the next probe retries.
func TestPanicDoesNotWedgeKey(t *testing.T) {
	ctr, _ := testSource(t, "r^io(A, B)", storage.Row{"a", "1"})
	c := New(Options{})
	w := c.Wrap(&panicOnceWrapper{inner: ctr})

	func() {
		defer func() {
			if recover() == nil {
				t.Error("first access should panic through")
			}
		}()
		access(w, "a")
	}()
	// The key must not be wedged: this would block forever on the dead
	// flight if cleanup were skipped on panic.
	rows, err := access(w, "a")
	if err != nil || len(rows) != 1 {
		t.Fatalf("after panic: rows=%v err=%v", rows, err)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestVersionedEntries: a mutated relation's cached extractions — negative
// entries included — stop serving without any explicit invalidation,
// because entries are keyed by the source's data epoch; an execution still
// pinned to the old version keeps hitting its own entries.
func TestVersionedEntries(t *testing.T) {
	sch, err := schema.Parse("r^io(K, V)")
	if err != nil {
		t.Fatal(err)
	}
	rel := sch.Relations()[0]
	tab := storage.NewTable("r", 2)
	tab.InsertAll([]storage.Row{{"k", "old"}})
	live, err := source.NewTableSource(rel, tab)
	if err != nil {
		t.Fatal(err)
	}
	ctr := sourcetest.NewCounter(live, false)
	c := New(Options{})
	w := c.Wrap(ctr)

	access(w, "k")   // positive entry at the old epoch
	access(w, "amy") // negative entry at the old epoch
	pinned := c.Wrap(live.Snapshot())
	if got := ctr.Stats().Accesses; got != 2 {
		t.Fatalf("underlying = %d, want 2", got)
	}

	tab.InsertAll([]storage.Row{{"k", "new"}, {"amy", "here"}})

	// The live wrapper re-probes both bindings: old-epoch entries no longer
	// match, and the fresh rows are visible.
	if rows, _ := access(w, "k"); len(rows) != 2 {
		t.Errorf("post-mutation k rows = %v, want 2", rows)
	}
	if rows, _ := access(w, "amy"); len(rows) != 1 {
		t.Errorf("negative entry served after mutation: %v", rows)
	}
	if got := ctr.Stats().Accesses; got != 4 {
		t.Errorf("underlying = %d, want 4 (no stale hits)", got)
	}

	// The pinned wrapper, probing through the same cache, still serves the
	// old version — from the old-epoch entries, without a fresh probe.
	if rows, _ := access(pinned, "k"); len(rows) != 1 || rows[0][1] != "old" {
		t.Errorf("pinned access = %v, want the old row", rows)
	}
	if rows, _ := access(pinned, "amy"); len(rows) != 0 {
		t.Errorf("pinned negative access = %v, want empty", rows)
	}
}
