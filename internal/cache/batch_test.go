package cache

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

func batchWrapper(t *testing.T, rows int) source.Wrapper {
	t.Helper()
	sch := schema.MustParse("r^io(A, B)")
	tab := storage.NewTable("r", 2)
	for i := 0; i < rows; i++ {
		tab.Insert(storage.Row{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)})
	}
	src, err := source.NewTableSource(sch.Relation("r"), tab)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// ids interns boundary-form bindings for the Sym lookup/store API.
func ids(bindings ...[]string) [][]sym.ID {
	out := make([][]sym.ID, len(bindings))
	for i, b := range bindings {
		out[i] = sym.InternAll(b)
	}
	return out
}

// TestMultiGetMultiPut: round-tripping extractions through MultiPutSym
// makes them MultiGetSym hits, with per-binding hit accounting.
func TestMultiGetMultiPut(t *testing.T) {
	c := New(Options{})
	rows := [][]storage.IRow{{storage.Row{"a0", "b0"}.Intern()}, {}}
	c.MultiPutSym("r", 0, ids([]string{"a0"}, []string{"a1"}), rows)
	got, ok := c.MultiGetSym("r", 0, ids([]string{"a0"}, []string{"a1"}, []string{"a2"}))
	if !ok[0] || !ok[1] || ok[2] {
		t.Fatalf("ok = %v, want [true true false]", ok)
	}
	if !reflect.DeepEqual(got[0], rows[0]) {
		t.Errorf("got[0] = %v, want %v", got[0], rows[0])
	}
	if len(got[1]) != 0 {
		t.Errorf("negative entry must round-trip empty, got %v", got[1])
	}
	st := c.Snapshot()["r"]
	if st.Hits != 2 {
		t.Errorf("Hits = %d, want 2", st.Hits)
	}
	if st.Entries != 2 {
		t.Errorf("Entries = %d, want 2", st.Entries)
	}
}

// TestMultiPutEvicts: the LRU capacity bound holds under batch stores.
func TestMultiPutEvicts(t *testing.T) {
	c := New(Options{Capacity: 4, shards: 1})
	var bindings [][]sym.ID
	var rows [][]storage.IRow
	for i := 0; i < 10; i++ {
		a := fmt.Sprintf("a%d", i)
		bindings = append(bindings, sym.InternAll([]string{a}))
		rows = append(rows, []storage.IRow{storage.Row{a, "b"}.Intern()})
	}
	c.MultiPutSym("r", 0, bindings, rows)
	if got := c.Len(); got > 4 {
		t.Errorf("Len = %d, want <= 4 after batched stores", got)
	}
	if st := c.Snapshot()["r"]; st.Evictions == 0 {
		t.Error("evictions not counted for batch stores")
	}
}

// TestCachedSourceProbeBatch: the cache-wrapped source serves batches —
// first call all misses, second call all hits, partial overlaps mixed —
// and results always match the plain source.
func TestCachedSourceProbeBatch(t *testing.T) {
	ctx := context.Background()
	plain := batchWrapper(t, 8)
	c := New(Options{})
	cached := c.Wrap(plain)
	first := [][]string{{"a0"}, {"a1"}, {"a2"}}
	got, err := source.ProbeStrings(ctx, cached, first)
	if err != nil {
		t.Fatal(err)
	}
	want, err := source.ProbeStrings(ctx, plain, first)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cold batch = %v, want %v", got, want)
	}
	st := c.Snapshot()["r"]
	if st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("cold batch stats = %+v, want 0 hits / 3 misses", st)
	}

	// Overlapping batch: two hits, one fresh miss.
	second := [][]string{{"a1"}, {"a2"}, {"a5"}}
	got, err = source.ProbeStrings(ctx, cached, second)
	if err != nil {
		t.Fatal(err)
	}
	want, _ = source.ProbeStrings(ctx, plain, second)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm batch = %v, want %v", got, want)
	}
	st = c.Snapshot()["r"]
	if st.Hits != 2 || st.Misses != 4 {
		t.Errorf("warm batch stats = %+v, want 2 hits / 4 misses", st)
	}

	// A binding repeated inside one batch is fetched once: the repeat rides
	// the batch's own flight.
	third := [][]string{{"a6"}, {"a6"}}
	got, err = source.ProbeStrings(ctx, cached, third)
	if err != nil {
		t.Fatal(err)
	}
	want, _ = source.ProbeStrings(ctx, plain, third)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("repeated binding = %v, want %v", got, want)
	}
	st = c.Snapshot()["r"]
	if st.Misses != 5 || st.Collapsed != 1 {
		t.Errorf("repeated binding stats = %+v, want 5 misses / 1 collapsed", st)
	}
}

// TestProbeSkipsStoreAfterInvalidate: a batch probe that raced an
// Invalidate must not re-populate the cache with its stale extraction.
func TestProbeSkipsStoreAfterInvalidate(t *testing.T) {
	c := New(Options{})
	inner := &invalidatingWrapper{Wrapper: batchWrapper(t, 4), c: c}
	if _, err := source.ProbeStrings(context.Background(), c.Wrap(inner), [][]string{{"a0"}, {"a1"}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 0 {
		t.Errorf("Len = %d, want 0: the batch ran against a source invalidated mid-probe", got)
	}
}

// invalidatingWrapper invalidates its own relation while the probe is in
// flight, simulating a rebind racing a batch.
type invalidatingWrapper struct {
	source.Wrapper
	c *Cache
}

func (w *invalidatingWrapper) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	w.c.Invalidate(w.Relation().Name)
	return w.Wrapper.Probe(ctx, ids, out)
}

// TestMultiGetExpiry: expired entries are dropped and counted, not served.
func TestMultiGetExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	c := New(Options{TTL: time.Minute, now: func() time.Time { return now }})
	c.MultiPutSym("r", 0, ids([]string{"a0"}), [][]storage.IRow{{storage.Row{"a0", "b0"}.Intern()}})
	now = now.Add(2 * time.Minute)
	if _, ok := c.MultiGetSym("r", 0, ids([]string{"a0"})); ok[0] {
		t.Error("expired entry served from MultiGetSym")
	}
	if st := c.Snapshot()["r"]; st.Expirations != 1 {
		t.Errorf("Expirations = %d, want 1", st.Expirations)
	}
}
