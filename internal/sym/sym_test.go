package sym_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
//
// ops then drives reclamation over a second table against a map model, one
// operation a byte: intern under a hold, pin, root an ID the model knows to
// be live or drop the newest root, end the hold, sweep. After every step
// every value the table holds resolves to its value and no two share an ID;
// a sweep frees exactly what no pin or root holds, so a pinned ID is never
// freed; and a first-seen value gets a freed ID while one is free, a new one
// otherwise.
func FuzzIntern(f *testing.F) {
	f.Add("", "", []byte{0, 4, 0})
	f.Add("a\x00b", "\xff\xfe", []byte{0, 8, 17, 2, 4, 16, 9, 4, 24, 4})
	f.Add("héllo", "wörld", []byte{1, 8, 10, 26, 5, 4, 40, 48, 2, 19, 4, 3, 4, 56, 0})
	f.Fuzz(func(t *testing.T, a, b string, ops []byte) {
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
		reclaimModel(t, values, ops)
	})
}

// idRoot is a root holding a list of IDs.
type idRoot struct{ ids []sym.ID }

func (r *idRoot) MarkIDs(m *sym.Marks) { m.Add(r.ids) }

// reclaimModel runs FuzzIntern's reclamation model over values.
func reclaimModel(t *testing.T, values []string, ops []byte) {
	tab := sym.NewTable()
	root := &idRoot{}
	sym.AddRoot(tab, root)
	var (
		h       sym.Hold
		held    bool
		inTable = map[string]sym.ID{} // interned and not swept
		live    = map[sym.ID]bool{}   // interned under the active hold
		pinned  = map[sym.ID]bool{}
		free    = map[sym.ID]bool{} // freed and not issued again
		top     sym.ID              // the highest ID issued
	)
	intern := func(v string, pin bool) {
		var id sym.ID
		if pin {
			id = tab.Intern(v)
			pinned[id] = true
		} else {
			if !held {
				h, held = tab.Hold(), true
			}
			id = h.Intern(v)
			live[id] = true
		}
		if known, ok := inTable[v]; ok {
			if id != known {
				t.Fatalf("%q is ID %d, the model has %d", v, id, known)
			}
			return
		}
		switch {
		case len(free) > 0 && !free[id]:
			t.Fatalf("first-seen %q got ID %d while %d freed IDs were free", v, id, len(free))
		case len(free) == 0 && id != top+1:
			t.Fatalf("first-seen %q got ID %d with none free, want the new ID %d", v, id, top+1)
		}
		delete(free, id)
		top = max(top, id)
		inTable[v] = id
	}
	for step, op := range ops {
		v := values[int(op>>3)%len(values)]
		switch op % 6 {
		case 0:
			intern(v, false)
		case 1:
			intern(v, true)
		case 2:
			if id, ok := inTable[v]; ok && (live[id] || pinned[id] || slices.Contains(root.ids, id)) {
				root.ids = append(root.ids, id)
			}
		case 3:
			if len(root.ids) > 0 {
				root.ids = root.ids[:len(root.ids)-1]
			}
		case 4:
			if held {
				h.Release()
				held = false
				clear(live)
			}
			if !tab.Sweep() {
				t.Fatalf("step %d: Sweep did not run with no hold active", step)
			}
			for w, id := range inTable {
				if !pinned[id] && !slices.Contains(root.ids, id) {
					delete(inTable, w)
					free[id] = true
				}
			}
			for id := range free {
				if got := tab.Str(id); got != "" {
					t.Fatalf("step %d: freed ID %d still resolves to %q", step, id, got)
				}
			}
		default:
			if held {
				h.Release()
				held = false
				clear(live)
			}
		}
		owner := map[sym.ID]string{}
		for w, id := range inTable {
			if got := tab.Str(id); got != w {
				t.Fatalf("step %d: %q is ID %d, which resolves to %q", step, w, id, got)
			}
			if prev, ok := owner[id]; ok {
				t.Fatalf("step %d: %q and %q share ID %d", step, prev, w, id)
			}
			owner[id] = w
		}
		if tab.Len() != len(inTable) {
			t.Fatalf("step %d: Len() = %d, the model holds %d values", step, tab.Len(), len(inTable))
		}
	}
	if held {
		h.Release()
	}
}

// TestSmallTableIsSmall: a shard's first chunk is small and doubles, so a
// table of a thousand short values costs its values, its index and one
// reverse page — not 64 chunks of 64 KiB, 4 MiB before the first value
// repaid any of it.
func TestSmallTableIsSmall(t *testing.T) {
	for _, c := range []struct{ n, budget int }{{64, 128 << 10}, {1000, 256 << 10}} {
		vals := benchValues(c.n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tab := sym.NewTable()
		for _, v := range vals {
			tab.Intern(v)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tab)
		got := int(after.HeapAlloc) - int(before.HeapAlloc)
		t.Logf("a table of %d values holds %d B of heap", c.n, got)
		if got > c.budget {
			t.Errorf("a table of %d values holds %d B of heap, budget %d", c.n, got, c.budget)
		}
	}
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
// deletes, compaction and new epochs full of fresh symbols, for as long as
// a hold is active. The snapshot is held outside any execution, so the test
// takes the hold itself; its churn issues fewer IDs than make a sweep
// overdue, so the table's own holds, nested in it, never wait. The converse
// follows: once the hold has ended and a sweep has run, the values the table
// deleted and compacted away are gone, and the ones pinned (the assertions'
// sym.Lookup pins) are not.
func TestIDStabilityAcrossSnapshotsAndCompaction(t *testing.T) {
	sym.Sweep()
	h := sym.Default.Hold()
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

	// Delete the churned rows too, so that compaction drops them from the
	// log, then end the hold and sweep.
	churned := make([]storage.Row, 5000)
	for i := range churned {
		churned[i] = storage.Row{fmt.Sprintf("churn%d", i), fmt.Sprintf("w%d", i)}
	}
	tab.DeleteAll(churned)
	h.Release()
	if !sym.Sweep() {
		t.Fatal("Sweep did not run with no hold active")
	}
	look := sym.Default.Hold()
	defer look.Release()
	for _, r := range churned[:100] {
		for _, v := range r {
			if id, ok := look.Lookup(v); ok {
				t.Fatalf("%q, deleted and compacted away, is still ID %d after a sweep", v, id)
			}
		}
	}
	for i, ids := range pinnedIDs {
		for j, id := range ids {
			if got := sym.Default.Str(id); got != pinnedStrs[i][j] {
				t.Fatalf("pinned ID %d resolves to %q after a sweep, want %q", id, got, pinnedStrs[i][j])
			}
		}
	}
	runtime.KeepAlive(tab)
}

// TestStrOfAnUnheldIDIsHarmless: resolving an ID nothing holds is a bug of
// the caller's, and what it gets is "" or a value the ID had — never a
// panic or bytes outside a value. One goroutine resolves every ID of a
// table without a hold while another interns values of many lengths under
// holds, drops them, and sweeps, so the IDs are freed and issued again to
// values of other lengths the whole time.
func TestStrOfAnUnheldIDIsHarmless(t *testing.T) {
	tab := sym.NewTable()
	value := func(round, i int) string {
		return fmt.Sprintf("r%d-%s", round, strings.Repeat("x", (round*7+i*13)%300))
	}
	const perRound = 256
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for id := sym.ID(0); id <= perRound+1; id++ {
				v := tab.Str(id)
				if v == "" {
					continue
				}
				round, xs, ok := strings.Cut(strings.TrimPrefix(v, "r"), "-")
				if !ok || strings.Trim(round, "0123456789") != "" || strings.Trim(xs, "x") != "" {
					t.Errorf("ID %d resolved to %q, which no ID ever had", id, v)
					return
				}
			}
		}
	}()
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	for round := 0; round < rounds; round++ {
		h := tab.Hold()
		for i := 0; i < perRound; i++ {
			h.Intern(value(round, i))
		}
		h.Release()
		if !tab.Sweep() {
			t.Fatal("no sweep ran with no hold active")
		}
		if n := tab.Len(); n != 0 {
			t.Fatalf("round %d: %d values live after the sweep", round, n)
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := tab.Stats(); st.Reused == 0 {
		t.Errorf("%+v: no ID was issued again", st)
	}
}
