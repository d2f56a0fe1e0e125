package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"

	"toorjah/internal/sym"
)

// Contains reports row membership in this version.
func (s *Snapshot) Contains(r Row) bool {
	if len(r) != s.arity {
		return false
	}
	if s.arity == 0 {
		return s.Len() > 0
	}
	ir, ok := lookupRow(r)
	if !ok {
		return false
	}
	positions := make([]int, s.arity)
	for i := range positions {
		positions[i] = i
	}
	return len(s.SelectBatchSym(positions, [][]sym.ID{ir})[0]) > 0
}

// lookupRow resolves every value of r without interning; ok is false when
// one of them was never interned (such a row matches nothing stored).
func lookupRow(r Row) (IRow, bool) {
	out := make(IRow, len(r))
	for i, v := range r {
		id, ok := sym.Lookup(v)
		if !ok {
			return nil, false
		}
		out[i] = id
	}
	return out, true
}

// collidingKeys returns pairs of two-value keys whose IDs hash alike — what
// a table that took hash equality for key equality would confuse. The hash
// is seeded per process, so the pairs are searched for: of N keys some
// N²/2³³ pairs share a 32-bit hash. (One-value keys of consecutive IDs do
// not collide at all: the multiplicative hash spreads them evenly.)
func collidingKeys(t *testing.T, pairs int) [][2]Row {
	t.Helper()
	const side = 1000
	var out [][2]Row
	byHash := make(map[uint32]Row)
	for i := 0; i < side && len(out) < pairs; i++ {
		for j := 0; j < side && len(out) < pairs; j++ {
			key := Row{"x" + strconv.Itoa(i), "y" + strconv.Itoa(j)}
			h := sym.HashIDs(key.Intern())
			if other, ok := byHash[h]; ok {
				out = append(out, [2]Row{other, key})
			}
			byHash[h] = key
		}
	}
	if len(out) < pairs {
		t.Fatalf("found %d colliding pairs among %d keys, want %d", len(out), side*side, pairs)
	}
	return out
}

// version is a retained snapshot and what the model held at its epoch.
type version struct {
	snap        *Snapshot
	epoch       uint64
	compactions int             // how many the table had been through
	rows        []IRow          // the model's live rows, ordered by key
	live        map[string]bool // the same, by IRow.Key
	listed      bool            // RowsSym has been checked (a snapshot computes it once)
}

// check holds one snapshot to the model of its epoch: Len, RowsSym,
// Contains and SelectBatchSym over every non-empty position subset, probed
// with values the table holds, values it never held, values whose hash
// collides with one it holds, and values interned only now — after the
// snapshot was taken.
func (v *version) check(t *testing.T, rng *rand.Rand, arity int, draw func() Row, collide [][2]Row) {
	t.Helper()
	s := v.snap
	if s.Epoch() != v.epoch || s.Len() != len(v.rows) {
		t.Fatalf("epoch %d: snapshot reports epoch %d with %d rows, model %d rows", v.epoch, s.Epoch(), s.Len(), len(v.rows))
	}
	if !v.listed {
		v.listed = true
		stored := s.RowsSym()
		if len(stored) != len(v.rows) {
			t.Fatalf("epoch %d: RowsSym returns %d rows, model %d", v.epoch, len(stored), len(v.rows))
		}
		seen := make(map[string]bool, len(stored))
		for _, r := range stored {
			k := r.Key()
			if !v.live[k] || seen[k] {
				t.Fatalf("epoch %d: RowsSym returns %v, which the model does not hold or holds once", v.epoch, r.Strings())
			}
			seen[k] = true
		}
	}
	late := fmt.Sprintf("late-%d-%d", arity, rng.Int63())
	for n := 0; n < 12; n++ {
		r := draw()
		switch n {
		case 0:
			r[rng.Intn(arity)] = late // interned after the snapshot, below
		case 1:
			r[rng.Intn(arity)] = "never interned " + late
		case 2, 3:
			if len(v.rows) > 0 {
				r = v.rows[rng.Intn(len(v.rows))].Strings()
			}
		}
		ir, interned := lookupRow(r)
		if got, want := s.Contains(r), interned && v.live[IRow(ir).Key()]; got != want {
			t.Fatalf("epoch %d: Contains(%v) = %v, model %v", v.epoch, r, got, want)
		}
	}
	if _, ok := sym.Lookup("never interned " + late); ok {
		t.Fatalf("Contains interned the value it was asked about")
	}
	lateID := sym.Intern(late)

	for subset := 1; subset < 1<<arity; subset++ {
		var positions []int
		for p := 0; p < arity; p++ {
			if subset&(1<<p) != 0 {
				positions = append(positions, p)
			}
		}
		project := func(r Row) []sym.ID {
			out := make([]sym.ID, len(positions))
			for i, p := range positions {
				out[i] = sym.Intern(r[p])
			}
			return out
		}
		var bindings [][]sym.ID
		for n := 0; n < 3; n++ {
			bindings = append(bindings, project(draw()))
		}
		if len(v.rows) > 0 {
			bindings = append(bindings, project(v.rows[rng.Intn(len(v.rows))].Strings()))
		}
		absent := project(draw())
		absent[rng.Intn(len(absent))] = sym.Intern("in no table")
		interned := project(draw())
		interned[rng.Intn(len(interned))] = lateID
		bindings = append(bindings, absent, interned, bindings[0]) // a repeat, too
		if subset&3 == 3 {
			for _, key := range collide[rng.Intn(len(collide))] {
				r := draw()
				copy(r, key)
				bindings = append(bindings, project(r))
			}
		}
		got := s.SelectBatchSym(positions, bindings)
		if len(got) != len(bindings) {
			t.Fatalf("epoch %d: %d results for %d bindings", v.epoch, len(got), len(bindings))
		}
		// A result is the model's when it has as many rows, each of them
		// live at this epoch, matching the binding, and none twice.
		for i, b := range bindings {
			want := 0
		rows:
			for _, r := range v.rows {
				for j, p := range positions {
					if r[p] != b[j] {
						continue rows
					}
				}
				want++
			}
			if want == 0 && got[i] != nil {
				t.Fatalf("epoch %d: positions %v, binding %v: %v, want nil", v.epoch, positions, sym.Strs(b), MaterializeRows(got[i]))
			}
			if len(got[i]) != want {
				t.Fatalf("epoch %d: positions %v, binding %v: %d rows, model %d", v.epoch, positions, sym.Strs(b), len(got[i]), want)
			}
			seen := map[string]bool{}
			for _, r := range got[i] {
				k := r.Key()
				for j, p := range positions {
					if r[p] != b[j] || !v.live[k] || seen[k] {
						t.Fatalf("epoch %d: positions %v, binding %v: row %v does not match, is not the model's or is returned twice", v.epoch, positions, sym.Strs(b), r.Strings())
					}
				}
				seen[k] = true
			}
		}
	}
}

// TestTableMatchesMapModel drives a table and a map[string]bool side by
// side through random InsertAll and DeleteAll batches — duplicates inside a
// batch, deleted rows inserted again, deletes of rows never stored and of
// values never interned, values whose hashes collide — at arities 1 to 4
// and past several compactions. Every changing batch advances the epoch by
// exactly one, and after every batch the current snapshot and a handful
// retained from earlier epochs, some from before a compaction, still answer
// as the model did at their epoch: the watermark cut, the tombstone bitsets
// and the shared indexes all hold. A reader goroutine probes whatever
// snapshot is current throughout, for the race detector.
func TestTableMatchesMapModel(t *testing.T) {
	collide := collidingKeys(t, 4)
	for arity := 1; arity <= 4; arity++ {
		t.Run(fmt.Sprintf("arity%d", arity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(20 + arity)))
			// The domain holds some five thousand rows; one draw in eight
			// starts with a colliding key.
			span := []int{1: 5000, 2: 70, 3: 17, 4: 8}[arity]
			draw := func() Row {
				r := make(Row, arity)
				for p := range r {
					r[p] = fmt.Sprintf("c%d_%d", p, rng.Intn(span))
				}
				if arity >= 2 && rng.Intn(8) == 0 {
					copy(r, collide[rng.Intn(len(collide))][rng.Intn(2)])
				}
				return r
			}
			tab := NewTable("r", arity)
			model := map[string]IRow{} // by Row.Key

			// The reader makes a round of probes whenever a batch is about
			// to be applied, and so runs beside it.
			poke := make(chan struct{}, 1)
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				for range poke {
					s := tab.Snapshot()
					rows := s.RowsSym()
					if len(rows) != s.Len() {
						t.Errorf("epoch %d: RowsSym returns %d rows, Len %d", s.Epoch(), len(rows), s.Len())
						return
					}
					for _, r := range rows[:min(4, len(rows))] {
						found := false
						for _, g := range s.SelectBatchSym([]int{0}, [][]sym.ID{r[:1]})[0] {
							found = found || &g[0] == &r[0]
							if g[0] != r[0] {
								t.Errorf("epoch %d: a probe for %v returned %v", s.Epoch(), r[:1], g)
								return
							}
						}
						if !found || !s.Contains(r.Strings()) {
							t.Errorf("epoch %d: row %v of RowsSym is not found by value", s.Epoch(), r.Strings())
							return
						}
					}
				}
			}()
			defer reader.Wait()
			defer close(poke)

			compactions, logLen, ghosts, acrossCompaction := 0, 0, 0, 0
			var retained []*version
			retain := func() *version {
				v := &version{snap: tab.Snapshot(), epoch: tab.Epoch(), compactions: compactions, live: make(map[string]bool, len(model))}
				keys := make([]string, 0, len(model))
				for k := range model {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					v.rows = append(v.rows, model[k])
					v.live[model[k].Key()] = true
				}
				return v
			}
			growing := true
			for batch := 0; compactions < 3; batch++ {
				if batch == 400 {
					t.Fatalf("%d compactions after %d batches, want 3", compactions, batch)
				}
				switch {
				case len(model) < 300:
					growing = true
				case len(model) > 900:
					growing = false
				}
				epoch := tab.Epoch()
				current := retain()
				changed := 0
				select {
				case poke <- struct{}{}:
				default:
				}
				if len(model) == 0 || growing == (rng.Intn(4) > 0) {
					// Insert: fresh draws, repeats within the batch, and rows
					// the table holds or has held.
					var rows []Row
					for n := 1 + rng.Intn(150); n > 0; n-- {
						r := draw()
						rows = append(rows, r)
						if rng.Intn(6) == 0 {
							rows = append(rows, r)
						}
					}
					for _, r := range rows {
						if _, held := model[r.Key()]; !held {
							model[r.Key()] = r.Intern()
							changed++
						}
					}
					if got := tab.InsertAll(rows); got != changed {
						t.Fatalf("batch %d: InsertAll added %d rows, model %d", batch, got, changed)
					}
				} else {
					// Delete: live rows, one of them twice, draws that may
					// never have been stored, a row of the wrong arity and one
					// of values no one has interned.
					rows := make([]Row, 1+rng.Intn(min(200, len(current.rows))))
					for i, at := range rng.Perm(len(current.rows))[:len(rows)] {
						rows[i] = current.rows[at].Strings()
					}
					ghosts++
					ghost := draw()
					ghost[arity-1] = fmt.Sprintf("ghost-%d-%d", arity, ghosts)
					rows = append(rows, rows[0], draw(), draw(), append(draw(), "x"), ghost)
					rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
					for _, r := range rows {
						if _, held := model[r.Key()]; held {
							delete(model, r.Key())
							changed++
						}
					}
					if got := tab.DeleteAll(rows); got != changed {
						t.Fatalf("batch %d: DeleteAll removed %d rows, model %d", batch, got, changed)
					}
					if _, ok := sym.Lookup(ghost[arity-1]); ok {
						t.Fatalf("batch %d: DeleteAll interned a value it was asked to delete", batch)
					}
				}
				if want := epoch + uint64(min(changed, 1)); tab.Epoch() != want {
					t.Fatalf("batch %d changed %d rows: epoch %d → %d, want %d", batch, changed, epoch, tab.Epoch(), want)
				}
				tab.wmu.Lock()
				if len(tab.rows) < logLen {
					compactions++
				}
				logLen = len(tab.rows)
				tab.wmu.Unlock()

				// Hold on to four earlier versions, replacing a random one now
				// and then: some live through a compaction or two.
				if len(retained) < 4 {
					retained = append(retained, current)
				} else if rng.Intn(8) == 0 {
					retained[rng.Intn(len(retained))] = current
				}
				retain().check(t, rng, arity, draw, collide)
				for _, v := range retained {
					v.check(t, rng, arity, draw, collide)
					if v.compactions < compactions {
						acrossCompaction++
					}
				}
			}
			if acrossCompaction == 0 {
				t.Errorf("no snapshot was checked after a compaction it predates: the test lost what it is for")
			}
		})
	}
}
