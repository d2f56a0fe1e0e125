package exec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"toorjah/internal/plan"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// semiNaivePass is the brute-force reference for one enumerator pass over
// pools whose first old[i] values of position i were enumerated before: every
// combination of the full pools, in lexicographic order, grouped by its
// rightmost fresh coordinate d ascending. Nothing while a pool is empty.
func semiNaivePass(pools [][]sym.ID, old []int) [][]sym.ID {
	var combos [][]sym.ID
	idx := make([]int, len(pools))
	for _, p := range pools {
		if len(p) == 0 {
			return nil
		}
	}
	for {
		combo := make([]sym.ID, len(pools))
		for i, j := range idx {
			combo[i] = pools[i][j]
		}
		combos = append(combos, combo)
		i := len(idx) - 1
		for ; i >= 0; i-- {
			if idx[i]++; idx[i] < len(pools[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	var out [][]sym.ID
	for d := range pools {
		for _, combo := range combos {
			rightmost := -1
			for i, v := range combo {
				if slices.Index(pools[i], v) >= old[i] {
					rightmost = i
				}
			}
			if rightmost == d {
				out = append(out, combo)
			}
		}
	}
	return out
}

// TestEnumeratorVisitsEachBindingOnce: whatever passes the values of a
// node's input domains arrive between, each pass appends exactly the
// semi-naive product a brute-force reference computes, in its order, after
// whatever the destination held; together the passes enumerate the cross
// product of the final domains, every binding exactly once, and nothing
// while a domain is empty. A pattern without inputs has one binding, ().
func TestEnumeratorVisitsEachBindingOnce(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := rng.Intn(4)
		sc := getScratch()
		es := sc.enum(width)

		// arrivals[i] are the values position i still has to receive; pools
		// and old are the reference's copy of the domains.
		arrivals := make([][]sym.ID, width)
		for i := range arrivals {
			for v := 0; v < 1+rng.Intn(5); v++ {
				arrivals[i] = append(arrivals[i], sym.ID(100*(i+1)+v))
			}
		}
		want := 1
		for _, a := range arrivals {
			want *= len(a)
		}
		pools, old := make([][]sym.ID, width), make([]int, width)
		arrive := func() {
			if width == 0 {
				return
			}
			i := rng.Intn(width)
			if len(arrivals[i]) == 0 {
				return
			}
			// Known values arrive again, as they do from overlapping deltas.
			es.pos[i].add(arrivals[i][0])
			if rng.Intn(3) > 0 {
				es.pos[i].add(arrivals[i][0])
			}
			pools[i] = append(pools[i], arrivals[i][0])
			arrivals[i] = arrivals[i][1:]
		}
		pending := func() bool {
			for _, a := range arrivals {
				if len(a) > 0 {
					return true
				}
			}
			return false
		}

		visits := map[string]int{}
		for pass := 0; ; pass++ {
			more := pending()
			for n := rng.Intn(3); n > 0; n-- {
				arrive()
			}
			prefix := make([]sym.ID, rng.Intn(3))
			for i := range prefix {
				prefix[i] = sym.ID(7 + i)
			}
			dst, n := es.next(slices.Clone(prefix))
			if !slices.Equal(dst[:len(prefix)], prefix) {
				t.Fatalf("seed %d pass %d: the pass overwrote what dst held: %v", seed, pass, dst)
			}
			var got [][]sym.ID
			for i := range n {
				at := len(prefix) + i*width
				got = append(got, dst[at:at+width])
			}
			if len(dst) != len(prefix)+n*width {
				t.Fatalf("seed %d pass %d: %d IDs appended for %d bindings of width %d", seed, pass, len(dst)-len(prefix), n, width)
			}
			if width == 0 {
				if want := min(1, 1-pass); n != want {
					t.Fatalf("seed %d pass %d: %d free bindings, want %d", seed, pass, n, want)
				}
			} else {
				ref := semiNaivePass(pools, old)
				if ref != nil {
					for i := range old {
						old[i] = len(pools[i])
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(ref) {
					t.Fatalf("seed %d pass %d: the pass appended %v, want %v", seed, pass, got, ref)
				}
			}
			for _, b := range got {
				visits[fmt.Sprint(b)]++
			}
			if !more && n == 0 {
				break // every value had arrived and a pass found nothing new
			}
		}
		if len(visits) != want {
			t.Errorf("seed %d: %d distinct bindings enumerated, want %d", seed, len(visits), want)
		}
		for b, n := range visits {
			if n != 1 {
				t.Errorf("seed %d: binding %s enumerated %d times", seed, b, n)
			}
		}
		sc.release()
	}
}

// BenchmarkEnumerate times the enumerator on its own: one pass appending a
// 4096-binding product of width 1, 2 or 3 onto a reused queue, with its owner
// run, the way run appends a node's bindings to its relation's. It reports ns
// per binding.
func BenchmarkEnumerate(b *testing.B) {
	for _, width := range []int{1, 2, 3} {
		b.Run(fmt.Sprint(width), func(b *testing.B) {
			es := new(enumState)
			es.resize(width)
			per := map[int]int{1: 4096, 2: 64, 3: 16}[width]
			for i := range es.pos {
				for v := range per {
					es.pos[i].add(sym.ID(1000*(i+1) + v))
				}
			}
			var r relQueue
			node := &plan.Cache{}
			bindings := 0
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for i := range es.pos {
					es.pos[i].old = 0
				}
				var n int
				r.ids, r.runs, r.n = r.ids[:0], r.runs[:0], 0
				r.ids, n = es.next(r.ids)
				r.queued(node, n)
				bindings += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(bindings), "ns/binding")
		})
	}
}

// TestMetaCacheHitsAndWaiters: the bindings a pass appends to a shared queue
// are sorted after the pass, each one queued, answered from a landed
// extraction or made to wait for one still queued or in flight. r's second
// occurrence asks for what its first extracts — x1…x40 after x0…x39 — so
// over tables, where a round trip lands before the next pass, it hits; over
// sources that can block, with one access per round trip and four in flight,
// it waits for accesses not yet landed. Every executor, batch bound and path
// gives the same answers and probes each of r's 41 distinct bindings once.
func TestMetaCacheHitsAndWaiters(t *testing.T) {
	const n = 40
	data := map[string][]storage.Row{}
	var want []string
	for i := 0; i < n; i++ {
		data["seed"] = append(data["seed"], storage.Row{fmt.Sprintf("x%d", i)})
		want = append(want, fmt.Sprintf("x%d,x%d", i, i+2))
	}
	for i := 0; i <= n; i++ {
		data["r"] = append(data["r"], storage.Row{fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1)})
	}
	slices.Sort(want)
	f := setup(t, `
seed^o(A)
r^io(A, A)
`, "q(X, Z) :- seed(X), r(X, Y), r(Y, Z)", data)
	onBothPaths(t, f, func(t *testing.T, f *fixture) {
		for _, staged := range []bool{true, false} {
			for _, mb := range []int{1, 16} {
				res, err := run(context.Background(), f.plan, f.reg, Options{MaxBatch: mb}, staged, nil)
				if err != nil {
					t.Fatal(err)
				}
				got := res.SortedAnswers()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("staged %v, max batch %d: answers %v, want %v", staged, mb, got, want)
				}
				if a := res.Stats["r"].Accesses; a != n+1 {
					t.Errorf("staged %v, max batch %d: r accessed %d times, want %d", staged, mb, a, n+1)
				}
			}
		}
	})
}
