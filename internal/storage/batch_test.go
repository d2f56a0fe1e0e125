package storage

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"toorjah/internal/sym"
)

// TestSelectBatchSym: one batch must agree with the same bindings probed one
// at a time, including misses and a repeated binding.
func TestSelectBatchSym(t *testing.T) {
	tab := NewTable("r", 2)
	for i := 0; i < 10; i++ {
		tab.Insert(Row{fmt.Sprintf("a%d", i%3), fmt.Sprintf("b%d", i)})
	}
	snap := tab.Snapshot()
	var bindings [][]sym.ID
	for _, v := range []string{"a0", "a1", "nope", "a2", "a0"} {
		bindings = append(bindings, Row{v}.Intern())
	}
	got := snap.SelectBatchSym([]int{0}, bindings)
	if len(got) != len(bindings) {
		t.Fatalf("got %d results for %d bindings", len(got), len(bindings))
	}
	for i, b := range bindings {
		want := snap.SelectBatchSym([]int{0}, [][]sym.ID{b})[0]
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("binding %v: batch %v, single %v", b, got[i], want)
		}
	}
	if len(got[0]) != 4 || len(got[2]) != 0 {
		t.Errorf("a0 matched %d rows (want 4), nope matched %d (want 0)", len(got[0]), len(got[2]))
	}
}

func TestSelectBatchSymFreeRelation(t *testing.T) {
	tab := NewTable("free", 1)
	tab.Insert(Row{"x"})
	tab.Insert(Row{"y"})
	got := tab.Snapshot().SelectBatchSym(nil, [][]sym.ID{{}, {}})
	if len(got) != 2 || len(got[0]) != 2 || len(got[1]) != 2 {
		t.Fatalf("free-relation batch = %v, want every row twice", got)
	}
}

func TestSelectBatchSymArityMismatchPanics(t *testing.T) {
	tab := NewTable("r", 2)
	defer func() {
		if recover() == nil {
			t.Error("a binding wider than the position set must panic")
		}
	}()
	tab.Snapshot().SelectBatchSym([]int{0}, [][]sym.ID{Row{"a", "b"}.Intern()})
}

// TestFreeProbeAllocatesNothing: a free access (no bound positions) is
// served from the live rows its snapshot lists on its first free access;
// every later one on the same snapshot allocates nothing, so a query over a
// free relation does not list its rows again.
func TestFreeProbeAllocatesNothing(t *testing.T) {
	rows := loadRows(1000)
	tab := NewTable("cat", 3)
	tab.InsertAll(rows)
	tab.DeleteAll(rows[:100])
	snap := tab.Snapshot()
	out := make([][]IRow, 2)
	probe := func() {
		if err := snap.SelectInto(nil, nil, out); err != nil {
			t.Fatal(err)
		}
	}
	probe()
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		t.Errorf("a warm free probe makes %.0f allocations, want none", allocs)
	}
	if len(out[0]) != 900 || len(out[1]) != 900 {
		t.Errorf("a free probe returned %d and %d rows, want the 900 live", len(out[0]), len(out[1]))
	}
}

// selectFixture is a 600-row relation of arity 3 with 600 distinct keys on
// its first two positions, and 1600 two-ID bindings of those positions, as
// two blocks: the 600 "hit" bindings with q < 15 match one row each, the
// 1000 "miss" ones nothing.
func selectFixture() (*Snapshot, []int, map[string][]sym.ID) {
	tab := NewTable("r", 3)
	rows := make([]Row, 600)
	for i := range rows {
		rows[i] = Row{fmt.Sprintf("p%d", i%40), fmt.Sprintf("q%d", i/40), fmt.Sprintf("v%d", i)}
	}
	tab.InsertAll(rows)
	bindings := map[string][]sym.ID{}
	for p := 0; p < 40; p++ {
		for q := 0; q < 40; q++ {
			kind := "miss"
			if q < 15 {
				kind = "hit"
			}
			bindings[kind] = append(bindings[kind], Row{fmt.Sprintf("p%d", p), fmt.Sprintf("q%d", q)}.Intern()...)
		}
	}
	return tab.Snapshot(), []int{0, 1}, bindings
}

// TestIndexFilterRejectsMisses: an index answers most absent keys from its
// key filter, never walking its hash table for them, and still finds every
// present one. Of selectFixture's 1000 absent two-ID keys at least 80 % must
// be rejected before the lookup; one hash sets one of at least 8 bits per
// key, so about 7 % get through here.
func TestIndexFilterRejectsMisses(t *testing.T) {
	snap, positions, bindings := selectFixture()
	out := make([][]IRow, 1000)
	if err := snap.SelectInto(positions, bindings["hit"], out[:600]); err != nil {
		t.Fatal(err)
	}
	for i, rows := range out[:600] {
		if len(rows) != 1 {
			t.Fatalf("present key %v matched %d rows, want 1", bindings["hit"][2*i:2*i+2], len(rows))
		}
	}
	finds := 0
	findHook = func() { finds++ }
	defer func() { findHook = nil }()
	if err := snap.SelectInto(positions, bindings["miss"], out); err != nil {
		t.Fatal(err)
	}
	for i, rows := range out {
		if rows != nil {
			t.Fatalf("absent key %v matched %v", bindings["miss"][2*i:2*i+2], rows)
		}
	}
	t.Logf("%d of %d absent keys rejected by the filter", len(out)-finds, len(out))
	if finds > len(out)/5 {
		t.Errorf("%d of %d absent keys reached the index lookup, want at most %d", finds, len(out), len(out)/5)
	}
}

// BenchmarkSelectInto times the probe primitive per binding over a 600-row
// relation indexed on two input positions — the shape of q2's rev_icde
// accesses — from a block into slots the caller owns, as a round trip makes
// it: bindings that match one row each and bindings that match nothing (most
// of q2's), one per call and sixteen (the executors' default batch). The
// width1 cases probe the same rows by one position, the width of a served
// point query's conf(P) probe, a peer's probe and ingest-rw's read. The
// difference between the sizes is the per-batch work (index resolution,
// lock, the block's length check) amortised; a miss allocates nothing, a hit
// its result.
func BenchmarkSelectInto(b *testing.B) {
	benchmarkSelect(b, func(snap *Snapshot, positions []int, block []sym.ID, out [][]IRow) [][]IRow {
		if err := snap.SelectInto(positions, block, out); err != nil {
			b.Fatal(err)
		}
		return out
	})
}

// BenchmarkSelectBatchSym is BenchmarkSelectInto through the adapter that
// takes one slice per binding and allocates the slots, as bench's
// storage.select_ns_per_binding calls it.
func BenchmarkSelectBatchSym(b *testing.B) {
	var bindings [][]sym.ID
	benchmarkSelect(b, func(snap *Snapshot, positions []int, block []sym.ID, _ [][]IRow) [][]IRow {
		bindings = bindings[:0]
		for at := 0; at < len(block); at += len(positions) {
			bindings = append(bindings, block[at:at+len(positions)])
		}
		return snap.SelectBatchSym(positions, bindings)
	})
}

// benchmarkSelect runs one select over selectFixture's blocks, hits and
// misses, one binding and sixteen per call, and over one-ID blocks of the
// same rows' third position, and reports ns per binding.
func benchmarkSelect(b *testing.B, sel func(snap *Snapshot, positions []int, block []sym.ID, out [][]IRow) [][]IRow) {
	snap, positions, bindings := selectFixture()
	byValue := map[string][]sym.ID{}
	for i := range 600 {
		byValue["hit"] = append(byValue["hit"], sym.Intern(fmt.Sprintf("v%d", i)))
		byValue["miss"] = append(byValue["miss"], sym.Intern(fmt.Sprintf("absent%d", i)))
	}
	out := make([][]IRow, 16)
	for _, shape := range []struct {
		prefix    string
		positions []int
		bindings  map[string][]sym.ID
	}{{"", positions, bindings}, {"width1/", []int{2}, byValue}} {
		w := len(shape.positions)
		sel(snap, shape.positions, shape.bindings["hit"][:w], out[:1]) // builds the index outside the timing
		for _, kind := range []string{"hit", "miss"} {
			for _, size := range []int{1, 16} {
				b.Run(fmt.Sprintf("%s%s/%d", shape.prefix, kind, size), func(b *testing.B) {
					block, n := shape.bindings[kind], len(shape.bindings[kind])/w
					b.ReportAllocs()
					matched, probed := 0, 0
					for i := 0; i < b.N; i++ {
						from := i * size % (n - size)
						for _, rows := range sel(snap, shape.positions, block[from*w:(from+size)*w], out[:size]) {
							matched += len(rows)
						}
						probed += size
					}
					if (matched > 0) != (kind == "hit") {
						b.Fatalf("%d rows matched", matched)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probed), "ns/binding")
				})
			}
		}
	}
}

// BenchmarkTableChurn times the write leg of a streaming ingest without the
// HTTP around it: at 4096 live rows, one batch inserts 64 new rows and one
// deletes the 64 oldest, tombstones accumulate and the log is compacted
// whenever they dominate it. Reported per pair of batches.
func BenchmarkTableChurn(b *testing.B) {
	const live, batch = 4096, 64
	// Row n pairs two values from pools interned up front, so the loop
	// builds no string, and no row comes round again for 2²³ rows.
	keys, vals := make([]string, 8192), make([]string, 1024)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
		sym.Intern(keys[i])
	}
	for i := range vals {
		vals[i] = "v" + strconv.Itoa(i)
		sym.Intern(vals[i])
	}
	fill := func(rows []Row, from int) []Row {
		for i := range rows {
			n := from + i
			rows[i][0], rows[i][1] = keys[n%len(keys)], vals[n/len(keys)%len(vals)]
		}
		return rows
	}
	ins, del := make([]Row, batch), make([]Row, batch)
	for i := range ins {
		ins[i], del[i] = make(Row, 2), make(Row, 2)
	}
	tab := NewTable("live", 2)
	for from := 0; from < live; from += batch {
		tab.InsertAll(fill(ins, from))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := tab.InsertAll(fill(ins, live+i*batch)); n != batch {
			b.Fatalf("batch %d inserted %d rows", i, n)
		}
		if n := tab.DeleteAll(fill(del, i*batch)); n != batch {
			b.Fatalf("batch %d deleted %d rows", i, n)
		}
	}
	if tab.Snapshot().Len() != live {
		b.Fatalf("%d live rows after the churn, want %d", tab.Snapshot().Len(), live)
	}
}

// loadRows are n rows shaped like the serving workloads' conf relation: two
// rows per person, a thousand conferences, thirty years.
func loadRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{"person" + strconv.Itoa(i/2), "conf" + strconv.Itoa(i%1000), strconv.Itoa(1990 + i%30)}
	}
	return rows
}

// BenchmarkTableLoad times the seed path of a serving node, per row: 300 000
// rows loaded into an empty table — in one InsertAll ("seed"), or ingested
// in 64-row batches ("batch64") — and then the first probe, which builds the
// index of its position. The values are interned outside the timing.
func BenchmarkTableLoad(b *testing.B) {
	rows := loadRows(300000)
	NewTable("warm", 3).InsertAll(rows)
	key := rows[0][:1].Intern()
	out := make([][]IRow, 1)
	for _, load := range []struct {
		name  string
		batch int
	}{{"seed", len(rows)}, {"batch64", 64}} {
		batch := load.batch
		b.Run(load.name, func(b *testing.B) {
			b.ReportAllocs()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			allocated := ms.TotalAlloc
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab := NewTable("conf", 3)
				for from := 0; from < len(rows); from += batch {
					tab.InsertAll(rows[from:min(from+batch, len(rows))])
				}
				if err := tab.Snapshot().SelectInto([]int{0}, key, out); err != nil || len(out[0]) != 2 {
					b.Fatalf("the first key matched %d rows (%v), want 2", len(out[0]), err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			loaded := float64(b.N * len(rows))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/loaded, "ns/row")
			b.ReportMetric(float64(ms.TotalAlloc-allocated)/loaded, "B/row")
		})
	}
}

// TestTableLoadAllocBudget: loading rows whose values are interned allocates
// per chunk of the log — and for the row set, the chunk directory and the
// snapshot — never per row, through InsertAll and Replay alike. The
// budget is one allocation per 128 rows; one per row fails it 128 times
// over.
func TestTableLoadAllocBudget(t *testing.T) {
	rows := loadRows(4096)
	NewTable("warm", 3).InsertAll(rows) // intern the values outside the count
	budget := float64(len(rows) / 128)
	for name, load := range map[string]func(){
		"InsertAll": func() { NewTable("conf", 3).InsertAll(rows) },
		"Replay":    func() { NewTable("conf", 3).Replay(CommitEvent{Op: OpInsert, Epoch: 7, Rows: rows}) },
	} {
		if allocs := testing.AllocsPerRun(3, load); allocs > budget {
			t.Errorf("%s of %d interned rows makes %.0f allocations, budget %.0f", name, len(rows), allocs, budget)
		}
	}
}

// TestCompactionReleasesDeadBlocks: compaction copies the live rows into
// fresh chunks, so a table's memory follows its live rows under churn. A
// 10 000-row batch deleted down to one live row — which compacts the log —
// no longer holds the chunks the batch filled: a finalizer on the first one
// runs. Rows Replay rebuilds come from the same path.
func TestCompactionReleasesDeadBlocks(t *testing.T) {
	rows := make([]Row, 10000)
	for i := range rows {
		rows[i] = Row{"churn" + strconv.Itoa(i), "v" + strconv.Itoa(i%7)}
	}
	for name, load := range map[string]func() *Table{
		"InsertAll": func() *Table {
			tab := NewTable("r", 2)
			tab.InsertAll(rows)
			return tab
		},
		"Replay": func() *Table {
			tab := NewTable("r", 2)
			tab.Replay(CommitEvent{Op: OpInsert, Epoch: 3, Rows: rows})
			return tab
		},
	} {
		tab := load()
		freed := make(chan struct{})
		// The first row of the log starts its first chunk.
		runtime.SetFinalizer(&tab.rows[0][0], func(*sym.ID) { close(freed) })
		if n := tab.DeleteAll(rows[1:]); n != len(rows)-1 {
			t.Fatalf("%s: deleted %d rows of %d", name, n, len(rows)-1)
		}
		if tab.n != 1 {
			t.Fatalf("%s: %d rows in the log after the churn, want the one live row", name, tab.n)
		}
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Errorf("%s: the compacted table still holds the first chunk of its log", name)
		}
		if !tab.Snapshot().Contains(rows[0]) { // and keeps the table alive until here
			t.Errorf("%s: the live row is gone", name)
		}
	}
}

// TestTableBytesPerRow: a stored row costs its IDs and its share of the row
// set, an indexed one its share of the index — no slice header per row, no
// allocation per key, and nothing the size of a load kept after it. 100 000
// rows of arity 3 and 50 000 keys, their values interned beforehand so the
// symbol table is not counted, are loaded as one batch and in 64-row
// batches, then indexed on their first position; the live heap after two
// collections holds each to a budget per row. A slice header per row alone
// is 24 bytes.
func TestTableBytesPerRow(t *testing.T) {
	const tableBudget, indexBudget = 36, 21
	rows := loadRows(100000)
	NewTable("warm", 3).InsertAll(rows) // intern the values outside the count
	key := rows[0][:1].Intern()
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, batch := range []int{len(rows), 64} {
		base := heap()
		tab := NewTable("conf", 3)
		for from := 0; from < len(rows); from += batch {
			tab.InsertAll(rows[from:min(from+batch, len(rows))])
		}
		loaded := heap()
		out := make([][]IRow, 1)
		if err := tab.Snapshot().SelectInto([]int{0}, key, out); err != nil || len(out[0]) != 2 {
			t.Fatalf("%d-row batches: the first key matched %v (%v), want two rows", batch, out[0], err)
		}
		indexed := heap()
		runtime.KeepAlive(tab)
		table := float64(loaded-base) / float64(len(rows))
		index := float64(indexed-loaded) / float64(len(rows))
		t.Logf("%d-row batches: the table costs %.1f B/row, its index %.1f B/row", batch, table, index)
		if table > tableBudget || index > indexBudget {
			t.Errorf("%d-row batches: the table costs %.1f B/row (budget %d), its index %.1f B/row (budget %d)", batch, table, tableBudget, index, indexBudget)
		}
	}
}
