package sym_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// TestInternRoundTrip is the basic interning property: on a stream of
// random values (with duplicates, NULs, unicode, and the empty-adjacent
// cases), Intern is idempotent, Str inverts it, Lookup agrees with Intern,
// and the table issues dense IDs starting at 1.
func TestInternRoundTrip(t *testing.T) {
	tab := sym.NewTable()
	rng := rand.New(rand.NewSource(1))
	values := []string{"a", "\x00", "a\x00b", "héllo wörld", "0"}
	for i := 0; i < 2000; i++ {
		values = append(values, fmt.Sprintf("v%d", rng.Intn(700)))
	}

	ids := map[string]sym.ID{}
	seen := map[sym.ID]bool{}
	for _, v := range values {
		id := tab.Intern(v)
		if id == 0 {
			t.Fatalf("Intern(%q) issued the reserved zero ID", v)
		}
		if prev, ok := ids[v]; ok {
			if prev != id {
				t.Fatalf("Intern(%q) unstable: %d then %d", v, prev, id)
			}
		} else {
			if seen[id] {
				t.Fatalf("Intern(%q) reused ID %d", v, id)
			}
			ids[v] = id
			seen[id] = true
		}
		if got := tab.Str(id); got != v {
			t.Fatalf("Str(Intern(%q)) = %q", v, got)
		}
		if lid, ok := tab.Lookup(v); !ok || lid != id {
			t.Fatalf("Lookup(%q) = %d,%v; want %d,true", v, lid, ok, id)
		}
	}
	if tab.Len() != len(ids) {
		t.Errorf("Len() = %d, want %d distinct values", tab.Len(), len(ids))
	}
	for v, id := range ids {
		if uint32(id) > uint32(len(ids)) {
			t.Errorf("ID %d for %q not dense (only %d symbols)", id, v, len(ids))
		}
	}
}

// TestLookupAndStrOfAbsent pins the read-path contracts: Lookup never
// interns, and Str of the zero or a never-issued ID is the empty string.
func TestLookupAndStrOfAbsent(t *testing.T) {
	tab := sym.NewTable()
	tab.Intern("present")
	before := tab.Len()
	if _, ok := tab.Lookup("absent"); ok {
		t.Error("Lookup of an absent value reported ok")
	}
	if tab.Len() != before {
		t.Errorf("Lookup grew the table: %d -> %d", before, tab.Len())
	}
	if got := tab.Str(0); got != "" {
		t.Errorf("Str(0) = %q, want \"\"", got)
	}
	if got := tab.Str(1 << 20); got != "" {
		t.Errorf("Str(never issued) = %q, want \"\"", got)
	}
}

// TestInternPageGrowth interns several pages' worth of symbols so the
// reverse-lookup directory has to grow, then verifies every ID — including
// those issued before the growth — still resolves.
func TestInternPageGrowth(t *testing.T) {
	tab := sym.NewTable()
	const n = 3*4096 + 17
	ids := make([]sym.ID, n)
	for i := 0; i < n; i++ {
		ids[i] = tab.Intern(fmt.Sprintf("sym-%d", i))
	}
	for i, id := range ids {
		if got, want := tab.Str(id), fmt.Sprintf("sym-%d", i); got != want {
			t.Fatalf("after page growth Str(%d) = %q, want %q", id, got, want)
		}
	}
}

// TestConcurrentIntern is the -race model test of the table: goroutines
// intern, look up and resolve heavily overlapping values at once, against a
// model of one atomic slot per value that the first goroutine to learn the
// value's ID fills. Every ID agrees with the model; a value the model holds
// is found by Lookup; every ID the model holds resolves to its value, also
// on goroutines that did not intern it; and the table ends with exactly one
// dense ID per value interned. The values are long enough to fill several
// chunks per shard, and a few are longer than a chunk.
func TestConcurrentIntern(t *testing.T) {
	tab := sym.NewTable()
	const goroutines = 8
	const distinct = 20000
	values := make([]string, distinct)
	for i := range values {
		values[i] = fmt.Sprintf("shared-%d-", i) + strings.Repeat("x", i*37%500)
		if i%5000 == 0 {
			values[i] += strings.Repeat("\xff", 70<<10)
		}
	}
	model := make([]atomic.Uint32, distinct)
	// learn records that values[i] has ID id, or reports a disagreement.
	learn := func(g, i int, id sym.ID) bool {
		if model[i].CompareAndSwap(0, uint32(id)) {
			return true
		}
		if known := sym.ID(model[i].Load()); known != id {
			t.Errorf("g%d: %q is ID %d, the model has %d", g, values[i], id, known)
			return false
		}
		return true
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 2*distinct; n++ {
				i := rng.Intn(distinct)
				switch known := sym.ID(model[i].Load()); rng.Intn(3) {
				case 0:
					if !learn(g, i, tab.Intern(values[i])) {
						return
					}
				case 1:
					id, ok := tab.Lookup(values[i])
					if known != 0 && (!ok || id != known) {
						t.Errorf("g%d: Lookup(%q) = %d,%v; the model has %d", g, values[i], id, ok, known)
						return
					}
					if ok && !learn(g, i, id) {
						return
					}
				default:
					if known != 0 && tab.Str(known) != values[i] {
						t.Errorf("g%d: Str(%d) = %q, want %q", g, known, tab.Str(known), values[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	seen := map[sym.ID]bool{}
	for i := range model {
		id := sym.ID(model[i].Load())
		if id == 0 {
			continue
		}
		if seen[id] || uint32(id) > uint32(tab.Len()) {
			t.Fatalf("%q has ID %d: reused, or past the %d issued", values[i], id, tab.Len())
		}
		seen[id] = true
		if got := tab.Str(id); got != values[i] {
			t.Fatalf("Str(%d) = %q after the run, want %q", id, got, values[i])
		}
	}
	if tab.Len() != len(seen) {
		t.Errorf("Len() = %d, want %d: one ID per value interned", tab.Len(), len(seen))
	}
}

// TestFirstSeenInternAllocBudget: a first-seen value costs no allocation of
// its own. Its bytes go into its shard's chunk, its header into a reverse
// page and its ID into the shard's index, so what 2¹⁶ first-seen values
// allocate is chunks, pages and index doublings — under one per 64 values —
// where a copy, a box or a map entry per value would be 2¹⁶ or more.
func TestFirstSeenInternAllocBudget(t *testing.T) {
	vals := benchValues(1 << 16)
	allocs := testing.AllocsPerRun(3, func() {
		tab := sym.NewTable()
		for _, v := range vals {
			tab.Intern(v)
		}
	})
	if budget := float64(len(vals) / 64); allocs > budget {
		t.Errorf("interning %d first-seen values makes %.0f allocations, budget %.0f", len(vals), allocs, budget)
	}
}

// FuzzIntern holds the table to its contract on any values: the empty
// string, NUL, invalid UTF-8, values that are prefixes of others and one
// longer than a chunk among them. Str inverts Intern, Intern is idempotent,
// Lookup agrees with it, and distinct values get distinct IDs.
func FuzzIntern(f *testing.F) {
	f.Add("", "")
	f.Add("a\x00b", "\xff\xfe")
	f.Add("héllo", "wörld")
	f.Fuzz(func(t *testing.T, a, b string) {
		tab := sym.NewTable()
		values := []string{"", "\x00", a, b, a + b, b + a, a + "\x00" + b, "\xff" + a,
			strings.Repeat(a+b+"\xff", 70<<10/(len(a)+len(b)+1)+1), a}
		ids := map[string]sym.ID{}
		owner := map[sym.ID]string{}
		for _, v := range values {
			id := tab.Intern(v)
			if got := tab.Str(id); id == 0 || got != v {
				t.Fatalf("Intern(%q) = %d, which resolves to %q", v, id, got)
			}
			if again := tab.Intern(v); again != id {
				t.Fatalf("Intern(%q) = %d, then %d", v, id, again)
			}
			if got, ok := tab.Lookup(v); !ok || got != id {
				t.Fatalf("Lookup(%q) = %d,%v; Intern gave %d", v, got, ok, id)
			}
			if prev, ok := owner[id]; ok && prev != v {
				t.Fatalf("%q and %q share ID %d", prev, v, id)
			}
			ids[v], owner[id] = id, v
		}
		if tab.Len() != len(ids) {
			t.Fatalf("Len() = %d for %d distinct values", tab.Len(), len(ids))
		}
	})
}

// TestKeyInjectivity: packed keys collide only when the ID tuples are
// equal — the property that lets dedup sets and cache keys hash packed
// bytes instead of NUL-joined strings (which DO collide on values
// containing the separator).
func TestKeyInjectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[string][]sym.ID{}
	var buf []byte
	for i := 0; i < 20000; i++ {
		ids := make([]sym.ID, rng.Intn(5))
		for j := range ids {
			ids[j] = sym.ID(rng.Intn(500) + 1)
		}
		buf = sym.AppendKey(buf[:0], ids)
		k := string(buf)
		if k != sym.Key(ids) {
			t.Fatal("AppendKey and Key disagree")
		}
		if prev, ok := seen[k]; ok {
			if len(prev) != len(ids) {
				t.Fatalf("key collision across arities: %v vs %v", prev, ids)
			}
			for j := range ids {
				if prev[j] != ids[j] {
					t.Fatalf("key collision: %v vs %v", prev, ids)
				}
			}
		} else {
			seen[k] = append([]sym.ID(nil), ids...)
		}
	}
}

// TestIDStabilityAcrossSnapshotsAndCompaction is the epoch-stability
// contract the cross-query cache rests on: IDs recorded in a storage
// snapshot keep resolving to the same values — and the forward map keeps
// returning the same IDs — after the table underneath churns through
// deletes, compaction and new epochs full of fresh symbols.
func TestIDStabilityAcrossSnapshotsAndCompaction(t *testing.T) {
	tab := storage.NewTable("r", 2)
	for i := 0; i < 200; i++ {
		tab.Insert(storage.Row{fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)})
	}
	snap := tab.Snapshot()
	pinnedRows := snap.RowsSym()
	pinnedIDs := make([][]sym.ID, len(pinnedRows))
	pinnedStrs := make([][]string, len(pinnedRows))
	for i, r := range pinnedRows {
		pinnedIDs[i] = append([]sym.ID(nil), r...)
		pinnedStrs[i] = r.Strings()
	}

	// Churn: delete most rows (driving the dead fraction past the
	// compaction threshold), then insert fresh values across many epochs.
	for i := 0; i < 180; i++ {
		tab.Delete(storage.Row{fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)})
	}
	for i := 0; i < 5000; i++ {
		tab.Insert(storage.Row{fmt.Sprintf("churn%d", i), fmt.Sprintf("w%d", i)})
	}
	if tab.Epoch() <= snap.Epoch() {
		t.Fatalf("churn did not advance the epoch: %d <= %d", tab.Epoch(), snap.Epoch())
	}

	for i, ids := range pinnedIDs {
		for j, id := range ids {
			if got := sym.Default.Str(id); got != pinnedStrs[i][j] {
				t.Fatalf("ID %d renumbered: Str = %q, snapshot had %q", id, got, pinnedStrs[i][j])
			}
			if again, ok := sym.Lookup(pinnedStrs[i][j]); !ok || again != id {
				t.Fatalf("Lookup(%q) = %d,%v after churn; snapshot had %d", pinnedStrs[i][j], again, ok, id)
			}
		}
	}
	// The pinned snapshot still materializes its original contents.
	for i, r := range snap.RowsSym() {
		for j, id := range r {
			if id != pinnedIDs[i][j] {
				t.Fatalf("snapshot row %d changed: %v vs %v", i, r, pinnedIDs[i])
			}
		}
	}
}
