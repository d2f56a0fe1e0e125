package sym_test

import (
	"strconv"
	"testing"

	"toorjah/internal/sym"
)

// benchID keeps the measured calls' results alive.
var benchID sym.ID

// benchValues are n distinct values shaped like the bench's keys.
func benchValues(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "value_" + strconv.Itoa(i)
	}
	return out
}

// BenchmarkIntern prices the interner's two paths: a value already interned
// (a shard read lock and one index walk) and a first-seen value (the write
// lock, a new ID, its bytes, its reverse-lookup slot and its index entry) — the bench's direct
// sym.intern_ns, on a private table that starts over every 2¹⁶ values so the
// process-wide one does not grow.
func BenchmarkIntern(b *testing.B) {
	vals := benchValues(1 << 16)
	b.Run("interned", func(b *testing.B) {
		tab := sym.NewTable()
		for _, v := range vals {
			tab.Intern(v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchID = tab.Intern(vals[i&(len(vals)-1)])
		}
	})
	b.Run("first-seen", func(b *testing.B) {
		var tab *sym.Table
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i&(len(vals)-1) == 0 {
				b.StopTimer()
				tab = sym.NewTable()
				b.StartTimer()
			}
			benchID = tab.Intern(vals[i&(len(vals)-1)])
		}
	})
}

// BenchmarkLookup prices resolving a value without interning it: a hit — the
// bench's direct sym.lookup_ns — and a miss, what a probe for a value no
// relation holds pays.
func BenchmarkLookup(b *testing.B) {
	vals := benchValues(1 << 16)
	tab := sym.NewTable()
	half := vals[:len(vals)/2]
	for _, v := range half {
		tab.Intern(v)
	}
	for _, c := range []struct {
		name string
		vals []string
	}{{"hit", half}, {"miss", vals[len(half):]}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchID, _ = tab.Lookup(c.vals[i&(len(c.vals)-1)])
			}
		})
	}
}

// benchStr keeps the measured calls' results alive.
var benchStr string

// BenchmarkStr prices resolving an ID, per ID, as the answer boundary does:
// 1024 IDs scattered over a table of 150 000 values — serve-scan renders 1024
// values per request, out of the serve workloads' 150 000 persons.
func BenchmarkStr(b *testing.B) {
	tab := sym.NewTable()
	vals := benchValues(150000)
	ids := make([]sym.ID, 1024)
	for i, v := range vals {
		id := tab.Intern(v)
		if i%146 == 0 && i/146 < len(ids) {
			ids[i/146] = id
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStr = tab.Str(ids[i&(len(ids)-1)])
	}
}
