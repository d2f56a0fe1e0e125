package cache

import (
	"fmt"
	"reflect"
	"testing"

	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// kvSource is a live table source of relation r^io(K, V) holding rows.
func kvSource(t *testing.T, rows ...storage.Row) (*source.TableSource, *storage.Table) {
	t.Helper()
	tab := storage.NewTable("r", 2)
	tab.InsertAll(rows)
	src, err := source.NewTableSource(schema.MustParse("r^io(K, V)").Relation("r"), tab)
	if err != nil {
		t.Fatal(err)
	}
	return src, tab
}

// TestStoreAfterRebindIsNotServed: an execution that pinned table A and
// stores after the relation was rebound must not feed an execution over
// table B, even though both tables are at the same epoch — the wrapper holds
// the incarnation it was made under, and Invalidate started the next one.
func TestStoreAfterRebindIsNotServed(t *testing.T) {
	a, _ := kvSource(t, storage.Row{"k", "old"})
	b, _ := kvSource(t, storage.Row{"k", "new"})
	if source.EpochOf(a) != source.EpochOf(b) || source.EpochOf(a) == 0 {
		t.Fatalf("the tables are at epochs %d and %d, want one shared, versioned epoch", source.EpochOf(a), source.EpochOf(b))
	}
	c := New(Options{})
	pinned := c.Wrap(a.Snapshot())
	c.Invalidate("r") // the rebind
	if rows, err := access(pinned, "k"); err != nil || len(rows) != 1 || rows[0][1] != "old" {
		t.Fatalf("the execution that pinned A reads %v, %v; want A's row", rows, err)
	}
	if rows, err := access(c.Wrap(b), "k"); err != nil || len(rows) != 1 || rows[0][1] != "new" {
		t.Errorf("after the rebind k reads %v, %v; want B's row", rows, err)
	}
	if rows, _ := access(pinned, "k"); len(rows) != 1 || rows[0][1] != "old" {
		t.Errorf("the old wrapper now reads %v; want A's row still, from its source", rows)
	}
}

// TestNewIncarnationIgnoresUnfreedGenerations: Invalidate starts the new
// incarnation before it has freed the old one's generations shard by shard;
// a wrapper made in between must not read what a shard still files. The
// window is held open here by starting the incarnation by hand.
func TestNewIncarnationIgnoresUnfreedGenerations(t *testing.T) {
	c := New(Options{})
	keys := ids([]string{"k"})
	c.MultiPutSym("r", 1, keys, [][]storage.IRow{{storage.Row{"k", "old"}.Intern()}})
	c.relation("r").inc.Add(1)
	if _, ok := c.MultiGetSym("r", 1, keys); ok[0] {
		t.Error("the new incarnation was served an entry of the old one")
	}
	c.MultiPutSym("r", 1, keys, [][]storage.IRow{{storage.Row{"k", "new"}.Intern()}})
	if n := c.Invalidate("r"); n != 2 || c.Len() != 0 {
		t.Errorf("Invalidate dropped %d entries and left %d, want both incarnations' entries gone", n, c.Len())
	}
}

// lruOrder lists, shard by shard from most to least recently used, the
// bindings of one relation's resident entries.
func lruOrder(c *Cache, rel string) (order [][]sym.ID) {
	n := c.relation(rel).n
	for _, sh := range c.shards {
		sh.mu.Lock()
		for i := sh.slab[0].next; i != 0; i = sh.slab[i].next {
			if e := &sh.slab[i]; e.filed.r.n == n {
				order = append(order, e.ids)
			}
		}
		sh.mu.Unlock()
	}
	return order
}

// TestNewerEpochFreesOlderGenerations: a relation read after every write
// keeps one epoch's entries resident, not one per write — the first use of
// the newer epoch frees the older generations, with no sweep after the write
// — and costs the relation beside it nothing: not an entry, not a counter,
// not its place in the LRU order. A straggler pinned at the first epoch still
// reads its own version throughout.
func TestNewerEpochFreesOlderGenerations(t *testing.T) {
	c := New(Options{})
	var keys [][]sym.ID
	var rows [][]storage.IRow
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("o%d", i)
		keys = append(keys, sym.InternAll([]string{k}))
		rows = append(rows, []storage.IRow{storage.Row{k, "v"}.Intern()})
	}
	c.MultiPutSym("other", 1, keys, rows)
	c.MultiGetSym("other", 1, keys[:100]) // some hits, and an LRU order that is not the order of insertion
	other, order := c.Snapshot()["other"], lruOrder(c, "other")
	if other.Entries != 4096 || other.Hits != 100 {
		t.Fatalf("other starts as %+v, want 4096 entries and 100 hits", other)
	}

	live, tab := kvSource(t, storage.Row{"k", "v0"})
	w := c.Wrap(live)
	straggler := c.Wrap(live.Snapshot())
	for round := 1; round <= 1000; round++ {
		tab.InsertAll([]storage.Row{{"k", fmt.Sprintf("v%d", round)}, {fmt.Sprintf("k%d", round), "v"}})
		for _, k := range []string{"k", fmt.Sprintf("k%d", round)} {
			if got, err := access(w, k); err != nil || len(got) == 0 || k == "k" && len(got) != round+1 {
				t.Fatalf("round %d: %s reads %d rows, %v", round, k, len(got), err)
			}
		}
		if round%100 == 0 {
			if got, err := access(straggler, "k"); err != nil || len(got) != 1 || got[0][1] != "v0" {
				t.Fatalf("round %d: the straggler reads %v, %v; want the row of the version it pinned", round, got, err)
			}
		}
		if st := c.Snapshot()["r"]; st.Entries > int64(len(c.shards)) {
			t.Fatalf("round %d: r keeps %d entries resident, want at most one per shard (%d)", round, st.Entries, len(c.shards))
		}
	}
	if st := c.Snapshot()["r"]; st.Hits != 0 || st.Misses != 2010 || st.Evictions != 0 {
		t.Errorf("r ends as %+v, want every read after a write a miss and nothing evicted", st)
	}
	if got := c.Snapshot()["other"]; got != other {
		t.Errorf("other ends as %+v, started as %+v", got, other)
	}
	if got := lruOrder(c, "other"); !reflect.DeepEqual(got, order) {
		t.Error("the LRU order of other's entries moved")
	}
}
