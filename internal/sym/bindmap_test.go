package sym_test

import (
	"math/rand"
	"runtime"
	"testing"

	"toorjah/internal/sym"
)

// TestPackBinding pins the packing scheme: arities 0–2 pack injectively
// (IDs are nonzero 32-bit, so the three arity ranges cannot overlap),
// longer bindings refuse.
func TestPackBinding(t *testing.T) {
	if k, ok := sym.PackBinding(nil); !ok || k != 0 {
		t.Errorf("PackBinding(nil) = %d,%v", k, ok)
	}
	if k, ok := sym.PackBinding([]sym.ID{7}); !ok || k != 7 {
		t.Errorf("PackBinding([7]) = %d,%v", k, ok)
	}
	if k, ok := sym.PackBinding([]sym.ID{1, 2}); !ok || k != 1<<32|2 {
		t.Errorf("PackBinding([1 2]) = %d,%v", k, ok)
	}
	if _, ok := sym.PackBinding([]sym.ID{1, 2, 3}); ok {
		t.Error("PackBinding of arity 3 must refuse")
	}

	rng := rand.New(rand.NewSource(3))
	seen := map[uint64][]sym.ID{}
	for i := 0; i < 20000; i++ {
		b := make([]sym.ID, rng.Intn(3))
		for j := range b {
			b[j] = sym.ID(rng.Uint32() | 1) // nonzero, full 32-bit range
		}
		k, ok := sym.PackBinding(b)
		if !ok {
			t.Fatalf("PackBinding(%v) refused", b)
		}
		if prev, dup := seen[k]; dup && !equalIDs(prev, b) {
			t.Fatalf("packed collision: %v and %v -> %d", prev, b, k)
		} else if !dup {
			seen[k] = append([]sym.ID(nil), b...)
		}
	}
}

func equalIDs(a, b []sym.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBindMapAgainstReference drives a BindMap with random Put/Get/Delete
// over bindings of arity 0–4 — crossing the packed/long boundary — and
// checks every observation against a plain map keyed on packed strings.
func TestBindMapAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var m sym.BindMap[int] // zero value must be ready
	ref := map[string]int{}

	randBinding := func() []sym.ID {
		b := make([]sym.ID, rng.Intn(5))
		for j := range b {
			b[j] = sym.ID(rng.Intn(40) + 1)
		}
		return b
	}
	for i := 0; i < 30000; i++ {
		b := randBinding()
		k := sym.Key(b)
		switch rng.Intn(4) {
		case 0, 1:
			m.Put(b, i)
			ref[k] = i
		case 2:
			got, ok := m.Get(b)
			want, wok := ref[k]
			if ok != wok || got != want {
				t.Fatalf("Get(%v) = %d,%v; want %d,%v", b, got, ok, want, wok)
			}
		case 3:
			m.Delete(b)
			delete(ref, k)
		}
		if m.Len() != len(ref) {
			t.Fatalf("Len() = %d, want %d", m.Len(), len(ref))
		}
	}

	// Range must visit exactly the reference entries; packed bindings are
	// delivered in a reused buffer, so the collector copies.
	got := map[string]int{}
	m.Range(func(b []sym.ID, v int) bool {
		got[sym.Key(b)] = v
		return true
	})
	if len(got) != len(ref) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("Range missed or mangled %q: %d vs %d", k, got[k], v)
		}
	}

	// Early-stop Range visits exactly one entry.
	visits := 0
	m.Range(func([]sym.ID, int) bool { visits++; return false })
	if m.Len() > 0 && visits != 1 {
		t.Errorf("early-stop Range visited %d entries", visits)
	}
}

// TestBindMapClear: Clear empties both the packed and the long side while
// leaving the map ready for pooled reuse.
func TestBindMapClear(t *testing.T) {
	var m sym.BindMap[struct{}]
	short := []sym.ID{1, 2}
	long := []sym.ID{1, 2, 3, 4}
	m.Put(short, struct{}{})
	m.Put(long, struct{}{})
	if m.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", m.Len())
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len() after Clear = %d", m.Len())
	}
	if _, ok := m.Get(short); ok {
		t.Error("packed entry survived Clear")
	}
	if _, ok := m.Get(long); ok {
		t.Error("long entry survived Clear")
	}
	m.Put(long, struct{}{})
	if _, ok := m.Get(long); !ok || m.Len() != 1 {
		t.Error("BindMap not reusable after Clear")
	}
}

// TestBindMapReserve: Reserve keeps what the map holds, and the entries it
// made room for then go in without the map growing — also after a Clear,
// which keeps the room.
func TestBindMapReserve(t *testing.T) {
	const n = 2000
	bindings := benchBindings(n)
	var m sym.BindMap[int]
	m.Put([]sym.ID{7}, 7)
	m.Put([]sym.ID{1, 2, 3}, 123) // the long side is not Reserve's business
	m.Reserve(2, n)
	if v, ok := m.Get([]sym.ID{7}); !ok || v != 7 {
		t.Fatalf("entry lost by Reserve: %d,%v", v, ok)
	}
	if v, ok := m.Get([]sym.ID{1, 2, 3}); !ok || v != 123 {
		t.Fatalf("long entry lost by Reserve: %d,%v", v, ok)
	}
	// Growing to n entries from empty allocates several times the final
	// table (n × 16 bytes here); a sized map allocates nothing to speak of.
	fill := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, b := range bindings {
			m.Put(b, i)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const slack = 8 * n // bytes; growing from empty costs ~70 per entry
	if grew := fill(); grew > slack {
		t.Errorf("filling a reserved map allocated %d bytes", grew)
	}
	if m.Len() != n+2 {
		t.Fatalf("Len() = %d, want %d", m.Len(), n+2)
	}
	m.Clear()
	m.Reserve(2, n)
	if grew := fill(); grew > slack {
		t.Errorf("refilling a cleared, reserved map allocated %d bytes", grew)
	}
	for i, b := range bindings {
		if v, ok := m.Get(b); !ok || v != i {
			t.Fatalf("Get(%v) = %d,%v after refill, want %d", b, v, ok, i)
		}
	}
}

// benchBindings returns n distinct two-ID bindings, the shape of q2's
// rev_icde accesses.
func benchBindings(n int) [][]sym.ID {
	out := make([][]sym.ID, n)
	for i := range out {
		out[i] = []sym.ID{sym.ID(i/200 + 1), sym.ID(i%200 + 1)}
	}
	return out
}

// benchN is q2's order of magnitude: one pass stores ~42k extractions.
const benchN = 40000

// BenchmarkBindMapPutGrown fills a map from empty, paying the doubling and
// rehashing ladder — what every execution's meta-cache used to do.
func BenchmarkBindMapPutGrown(b *testing.B) {
	bindings := benchBindings(benchN)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m sym.BindMap[[]int]
		for _, k := range bindings {
			m.Put(k, nil)
		}
	}
}

// BenchmarkBindMapPutPresized fills a recycled map that Reserve already
// sized: the steady state of a pooled meta-cache.
func BenchmarkBindMapPutPresized(b *testing.B) {
	bindings := benchBindings(benchN)
	var m sym.BindMap[[]int]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Clear()
		m.Reserve(2, len(bindings))
		for _, k := range bindings {
			m.Put(k, nil)
		}
	}
}

func BenchmarkBindMapGet(b *testing.B) {
	bindings := benchBindings(benchN)
	var m sym.BindMap[[]int]
	for _, k := range bindings {
		m.Put(k, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(bindings[i%len(bindings)]); ok {
			hits++
		}
	}
	if hits != b.N {
		b.Fatalf("%d hits in %d lookups", hits, b.N)
	}
}
