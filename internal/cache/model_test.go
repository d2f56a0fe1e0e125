package cache

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// scriptedSource answers a binding with an extraction that is a function of
// (relation, epoch, binding) — a third of them empty — and logs what reached
// it. Its epoch is whatever the script pinned it to.
type scriptedSource struct {
	rel    *schema.Relation
	epoch  uint64
	probed [][]sym.ID
}

func (s *scriptedSource) Relation() *schema.Relation { return s.rel }
func (s *scriptedSource) Epoch() uint64              { return s.epoch }
func (s *scriptedSource) Probe(_ context.Context, ids []sym.ID, out [][]storage.IRow) error {
	w := len(s.rel.InputPositions())
	for i := range out {
		b := append([]sym.ID{}, ids[i*w:i*w+w]...)
		s.probed = append(s.probed, b)
		out[i] = extraction(s.epoch, b)
	}
	return nil
}

func extraction(epoch uint64, b []sym.ID) []storage.IRow {
	sum := sym.ID(epoch)
	for _, id := range b {
		sum += id
	}
	if sum%3 == 0 {
		return nil
	}
	return []storage.IRow{append(slices.Clone(b), sum)}
}

// modelEntry is one entry of the reference: the cache as a plain map keyed
// the way it used to be keyed — relation, epoch, the binding's IDs — with the
// recency order of each shard written out.
type modelEntry struct {
	rel     string
	epoch   uint64
	ids     []sym.ID
	rows    []storage.IRow
	expires int64
}

type model struct {
	opts    Options
	now     func() int64
	entries map[string]*modelEntry
	recency [][]string // per shard, most recently used first
	newest  map[string]uint64
	stats   map[string]RelStats
}

func modelKey(rel string, epoch uint64, ids []sym.ID) string {
	return fmt.Sprint(rel, "@", epoch, ids)
}

func (m *model) shard(ids []sym.ID) int { return int(sym.HashIDs(ids) % uint32(len(m.recency))) }

func (m *model) bump(rel string, f func(*RelStats)) {
	st := m.stats[rel]
	f(&st)
	m.stats[rel] = st
}

func (m *model) remove(key string) {
	e := m.entries[key]
	delete(m.entries, key)
	sh := m.shard(e.ids)
	m.recency[sh] = slices.DeleteFunc(m.recency[sh], func(k string) bool { return k == key })
	m.bump(e.rel, func(st *RelStats) { st.Entries-- })
}

// enter is the one rule: the first use of an epoch newer than any the relation
// was used at frees everything older.
func (m *model) enter(rel string, epoch uint64) {
	if epoch <= m.newest[rel] {
		return
	}
	m.newest[rel] = epoch
	m.removeIf(func(e *modelEntry) bool { return e.rel == rel && e.epoch < epoch })
}

func (m *model) removeIf(gone func(*modelEntry) bool) (n int) {
	for key, e := range m.entries {
		if gone(e) {
			m.remove(key)
			n++
		}
	}
	return n
}

func (m *model) get(rel string, epoch uint64, ids []sym.ID) ([]storage.IRow, bool) {
	key := modelKey(rel, epoch, ids)
	e := m.entries[key]
	if e == nil {
		return nil, false
	}
	if e.expires != 0 && m.now() >= e.expires {
		m.remove(key)
		m.bump(rel, func(st *RelStats) { st.Expirations++ })
		return nil, false
	}
	m.bump(rel, func(st *RelStats) { st.Hits++ })
	m.touch(key, m.shard(ids))
	return e.rows, true
}

func (m *model) touch(key string, sh int) {
	m.recency[sh] = slices.DeleteFunc(m.recency[sh], func(k string) bool { return k == key })
	m.recency[sh] = slices.Insert(m.recency[sh], 0, key)
}

func (m *model) put(rel string, epoch uint64, ids []sym.ID, rows []storage.IRow) {
	ttl := m.opts.TTL
	key, sh := modelKey(rel, epoch, ids), m.shard(ids)
	e := m.entries[key]
	if e == nil {
		e = &modelEntry{rel: rel, epoch: epoch, ids: ids}
		m.entries[key] = e
		m.bump(rel, func(st *RelStats) { st.Entries++ })
	}
	e.rows, e.expires = rows, 0
	if ttl > 0 {
		e.expires = m.now() + int64(ttl)
	}
	m.touch(key, sh)
	perShard := (m.opts.Capacity + len(m.recency) - 1) / len(m.recency)
	for len(m.recency[sh]) > perShard {
		oldest := m.recency[sh][len(m.recency[sh])-1]
		m.bump(m.entries[oldest].rel, func(st *RelStats) { st.Evictions++ })
		m.remove(oldest)
	}
}

// TestCacheMatchesMapModel drives the cache and the reference through one
// seeded random script — lookups, stores, probes through wrappers (current
// ones, ones pinned to an older epoch, ones an Invalidate left behind), epoch
// advances, Invalidate, Clear, the clock moving past the TTL, all under a
// capacity small enough that most stores evict — over 3 relations and
// bindings of width 0–3, and compares after every step: what was served, what
// reached the source, every counter of Snapshot, Len, and that exactly the
// reference's keys are resident — so also which key the LRU evicted. A
// bystander reads the cache throughout, for the race detector.
func TestCacheMatchesMapModel(t *testing.T) {
	// Empty extractions are always cached; the subtest name says so.
	t.Run("DisableNegative=false", func(t *testing.T) {
		var clock atomic.Int64
		clock.Store(time.Unix(1000, 0).UnixNano())
		opts := Options{Capacity: 24, shards: 4, TTL: 10 * time.Second,
			now: func() time.Time { return time.Unix(0, clock.Load()) }}
		c := New(opts)
		m := &model{opts: opts, now: clock.Load, entries: map[string]*modelEntry{},
			recency: make([][]string, opts.shards), newest: map[string]uint64{}, stats: map[string]RelStats{}}

		stop := make(chan struct{})
		var bystander sync.WaitGroup
		bystander.Add(1)
		go func() {
			defer bystander.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.MultiGetSym("bystander", 1, [][]sym.ID{{1}, {2, 3}})
					c.Snapshot()
					c.Len()
				}
			}
		}()
		defer bystander.Wait()
		defer close(stop)

		rng := rand.New(rand.NewSource(22))
		rels := []string{"r0", "r1", "r2"}
		epochs := map[string]uint64{"r0": 1, "r1": 1, "r2": 0} // r2 starts unversioned
		type wrapper struct {
			src  *scriptedSource
			w    source.Wrapper
			live bool // false once its relation was invalidated
		}
		wrappers := map[string][]*wrapper{}
		bindingOf := func(width int) []sym.ID {
			b := make([]sym.ID, width)
			for i := range b {
				b[i] = sym.ID(1 + rng.Intn(4))
			}
			return b
		}
		binding := func() []sym.ID { return bindingOf(rng.Intn(4)) }
		someEpoch := func(rel string) uint64 { // the current epoch, at times an older one
			if e := epochs[rel]; e > 1 && rng.Intn(4) == 0 {
				return e - 1 - uint64(rng.Intn(2))
			}
			return epochs[rel]
		}
		invalidated := func(rel string) {
			m.newest[rel] = 0
			for _, w := range wrappers[rel] {
				w.live = false
			}
		}
		tag := sym.ID(1000)

		for step := 0; step < 6000; step++ {
			rel := rels[rng.Intn(len(rels))]
			switch op := rng.Intn(20); {
			case op < 5: // lookup
				epoch, bs := someEpoch(rel), [][]sym.ID{binding(), binding()}
				rows, ok := c.MultiGetSym(rel, epoch, bs)
				m.enter(rel, epoch)
				for i, b := range bs {
					want, hit := m.get(rel, epoch, b)
					if ok[i] != hit || !reflect.DeepEqual(rows[i], want) {
						t.Fatalf("step %d: get %s@%d %v = %v, %v; the model has %v, %v", step, rel, epoch, b, rows[i], ok[i], want, hit)
					}
				}
			case op < 9: // store
				epoch, b := someEpoch(rel), binding()
				tag++
				rows := []storage.IRow{{tag}}
				if rng.Intn(4) == 0 {
					rows = nil
				}
				c.MultiPutSym(rel, epoch, [][]sym.ID{b}, [][]storage.IRow{rows})
				m.enter(rel, epoch)
				m.put(rel, epoch, b, rows)
			case op < 15: // probe through a wrapper: a new one, or one made earlier
				var w *wrapper
				if ws := wrappers[rel]; len(ws) > 0 && rng.Intn(3) > 0 {
					w = ws[rng.Intn(len(ws))]
				} else {
					// A probe's block holds bindings of the relation's input
					// width alone: each wrapper's relation has a width of its own.
					k := rng.Intn(4)
					pattern := fmt.Sprintf("%s^%so(%sB)", rel, strings.Repeat("i", k), strings.Repeat("A, ", k))
					src := &scriptedSource{rel: schema.MustParse(pattern).Relation(rel), epoch: someEpoch(rel)}
					w = &wrapper{src: src, w: c.Wrap(src), live: true}
					wrappers[rel] = append(wrappers[rel], w)
				}
				var bs [][]sym.ID
				width := len(w.src.rel.InputPositions())
				for n := min(1+rng.Intn(4), 1<<(2*width)); len(bs) < n; {
					if b := bindingOf(width); !slices.ContainsFunc(bs, func(o []sym.ID) bool { return slices.Equal(o, b) }) {
						bs = append(bs, b)
					}
				}
				w.src.probed = nil
				out := make([][]storage.IRow, len(bs))
				if err := w.w.Probe(context.Background(), slices.Concat(bs...), out); err != nil {
					t.Fatal(err)
				}
				var missed [][]sym.ID
				if w.live {
					m.enter(rel, w.src.epoch)
				}
				for i, b := range bs {
					want, hit := []storage.IRow(nil), false
					if w.live {
						want, hit = m.get(rel, w.src.epoch, b)
					}
					if !hit {
						m.bump(rel, func(st *RelStats) { st.Misses++ })
						missed = append(missed, b)
						want = extraction(w.src.epoch, b)
					}
					if !reflect.DeepEqual(out[i], want) {
						t.Fatalf("step %d: probe %s@%d %v = %v, want %v (hit: %v)", step, rel, w.src.epoch, b, out[i], want, hit)
					}
				}
				if !reflect.DeepEqual(w.src.probed, missed) {
					t.Fatalf("step %d: probe of %s@%d %v reached the source with %v, the model misses %v", step, rel, w.src.epoch, bs, w.src.probed, missed)
				}
				for _, b := range missed {
					if w.live {
						m.put(rel, w.src.epoch, b, extraction(w.src.epoch, b))
					}
				}
			case op < 17: // a write lands: the next use is at a newer epoch
				if epochs[rel] > 0 {
					epochs[rel]++
				}
			case op == 17:
				clock.Add(int64(rng.Intn(5000)) * int64(time.Millisecond))
			case op == 18:
				want := m.removeIf(func(e *modelEntry) bool { return e.rel == rel })
				if got := c.Invalidate(rel); got != want {
					t.Fatalf("step %d: Invalidate(%s) dropped %d entries, the model %d", step, rel, got, want)
				}
				invalidated(rel)
				epochs[rel] = uint64(rng.Intn(2)) // the new source counts from the start, or not at all
			default:
				if rng.Intn(8) > 0 {
					continue // Clear is rare: it empties what the other steps build
				}
				c.Clear()
				m.removeIf(func(*modelEntry) bool { return true })
				for _, rel := range rels {
					invalidated(rel)
				}
			}

			if got := c.Len(); got != len(m.entries) {
				t.Fatalf("step %d: Len = %d, the model holds %d", step, got, len(m.entries))
			}
			for _, e := range m.entries {
				if !storedIDs(c, e.rel, e.epoch, e.ids) && !(e.expires != 0 && clock.Load() >= e.expires) {
					t.Fatalf("step %d: %s@%d %v is not resident; the model holds it", step, e.rel, e.epoch, e.ids)
				}
			}
			want := map[string]RelStats{}
			for rel, st := range m.stats {
				if st != (RelStats{}) {
					want[rel] = st
				}
			}
			if got := c.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Snapshot = %+v, the model counts %+v", step, got, want)
			}
		}
		for rel, st := range m.stats {
			if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 || st.Expirations == 0 {
				t.Errorf("the script never exercised some path of %s: %+v", rel, st)
			}
		}
	})
}
