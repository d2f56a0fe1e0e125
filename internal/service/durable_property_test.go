package service

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"toorjah"
	"toorjah/internal/cq"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
)

// mutation is one randomly generated batch of the property test's history.
type mutation struct {
	rel    string
	delete bool
	rows   []storage.Row
}

// applyMutation routes one batch into a database through the same
// table-level entry points /ingest uses, so the WAL hook (when installed)
// observes it exactly like production traffic.
func applyMutation(db *storage.Database, m mutation) {
	t := db.Table(m.rel)
	if m.delete {
		t.DeleteAll(m.rows)
	} else {
		t.InsertAll(m.rows)
	}
}

// genMutations builds a random but replayable history over the pub schema:
// inserts and deletes drawn from small value pools, so deletes hit real
// rows, inserts collide with earlier ones, and some batches apply zero
// rows — every shape the WAL's applied-rows-only contract must absorb.
func genMutations(rng *rand.Rand, n int) []mutation {
	papers := []string{"p1", "p2", "p3", "p4"}
	persons := []string{"alice", "bob", "carol"}
	confs := []string{"icde", "vldb", "sigmod"}
	years := []string{"y2007", "y2008"}
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	row := func(rel string) storage.Row {
		switch rel {
		case "pub1":
			return storage.Row{pick(papers), pick(persons)}
		case "conf":
			return storage.Row{pick(papers), pick(confs), pick(years)}
		default: // rev
			return storage.Row{pick(persons), pick(confs), pick(years)}
		}
	}
	rels := []string{"pub1", "conf", "rev"}
	out := make([]mutation, n)
	for i := range out {
		m := mutation{rel: rels[rng.Intn(len(rels))], delete: rng.Intn(4) == 0}
		for j := 0; j < 1+rng.Intn(4); j++ {
			m.rows = append(m.rows, row(m.rel))
		}
		out[i] = m
	}
	return out
}

// answerSet executes the query — a CQ, or a UCQ with one disjunct per line —
// with the given executor and returns the sorted answer multiset as
// comparable strings.
func answerSet(ctx context.Context, t *testing.T, sys *toorjah.System, query string, ex toorjah.Executor) []string {
	t.Helper()
	var q runnable
	var err error
	if cq.IsUnion(query) {
		q, err = sys.PrepareUCQ(query)
	} else {
		q, err = sys.Prepare(query)
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Execute(ctx, toorjah.WithExecutor(ex))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, res.Answers.Len())
	for _, tup := range res.Answers.Tuples() {
		out = append(out, strings.Join(tup.Strings(), "\x1f"))
	}
	sort.Strings(out)
	return out
}

// sortedRows flattens a pinned snapshot's rows into sorted comparable
// strings.
func sortedRows(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(out)
	return out
}

// TestDurablePrefixReplayProperty is the randomized durability property:
// for any prefix of applied batches — interleaved with snapshots taken at
// random points — recovering the WAL directory yields a store
// observationally identical to a fresh store fed the same prefix: same
// epochs, same rows, and the same answers under every executor, with and
// without the access cache.
func TestDurablePrefixReplayProperty(t *testing.T) {
	sch, err := schema.Parse(pubSchemaText)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		pubQuery,
		"q(C, Y) :- conf(P, C, Y)",
		"q(P, R) :- conf(P, C, Y), pub1(P, R)",
	}
	executors := []toorjah.Executor{
		toorjah.ExecutorFastFail, toorjah.ExecutorPipelined, toorjah.ExecutorNaive,
	}
	ctx := context.Background()

	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			history := genMutations(rng, 6+rng.Intn(14))
			prefix := history[:1+rng.Intn(len(history))]
			dir := t.TempDir()

			// The durable store: hook wired, batches applied, snapshots
			// taken at random points, then a clean close — the WAL tail
			// (or snapshot + tail) is all that persists.
			db, l, err := OpenDurable(sch, "", quietWALOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			// Nothing recovered and no CSV seed: materialize the schema's
			// tables so the history mutates the same hooked tables the
			// bound system serves.
			for _, rel := range sch.Relations() {
				if db.Table(rel.Name) != nil {
					continue
				}
				if _, err := db.Create(rel.Name, rel.Arity()); err != nil {
					t.Fatal(err)
				}
			}
			sys := toorjah.NewSystem(sch)
			if err := sys.BindDatabase(db); err != nil {
				t.Fatal(err)
			}
			WireWAL(sys, l)
			for _, m := range prefix {
				applyMutation(db, m)
				if rng.Intn(4) == 0 {
					if err := l.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovery vs the never-persisted twin fed the same prefix.
			recDB, l2, err := OpenDurable(sch, "", quietWALOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			twinDB := storage.NewDatabase()
			for _, rel := range sch.Relations() {
				if _, err := twinDB.Create(rel.Name, rel.Arity()); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range prefix {
				applyMutation(twinDB, m)
			}

			// Storage-level equivalence: epochs and live rows per relation.
			// A relation the WAL never saw (all its batches applied zero
			// rows) is absent from recovery; the restarted service binds it
			// fresh — epoch 1, no rows — which is what the twin holds too.
			for _, rel := range sch.Relations() {
				twinSnap := twinDB.Table(rel.Name).Snapshot()
				recEpoch, recRows := uint64(1), []storage.Row(nil)
				if rt := recDB.Table(rel.Name); rt != nil {
					s := rt.Snapshot()
					recEpoch, recRows = s.Epoch(), s.Rows()
				}
				if recEpoch != twinSnap.Epoch() {
					t.Errorf("%s: recovered epoch %d, twin %d", rel.Name, recEpoch, twinSnap.Epoch())
				}
				got, want := sortedRows(recRows), sortedRows(twinSnap.Rows())
				if strings.Join(got, ";") != strings.Join(want, ";") {
					t.Errorf("%s: recovered rows %v, twin %v", rel.Name, got, want)
				}
			}

			// Answer-level equivalence: every query, every executor, cache
			// on and off, must not distinguish the recovered store from the
			// twin.
			for _, cached := range []bool{false, true} {
				var sysOpts []toorjah.SystemOption
				if cached {
					sysOpts = append(sysOpts, toorjah.WithCache(toorjah.CacheOptions{}))
				}
				recSys := toorjah.NewSystem(sch, sysOpts...)
				if err := recSys.BindDatabase(recDB); err != nil {
					t.Fatal(err)
				}
				twinSys := toorjah.NewSystem(sch, sysOpts...)
				if err := twinSys.BindDatabase(twinDB); err != nil {
					t.Fatal(err)
				}
				for _, query := range queries {
					for _, ex := range executors {
						got := answerSet(ctx, t, recSys, query, ex)
						want := answerSet(ctx, t, twinSys, query, ex)
						if strings.Join(got, ";") != strings.Join(want, ";") {
							t.Errorf("cached=%v executor=%d %q: recovered answers %v, twin %v",
								cached, ex, query, got, want)
						}
					}
				}
			}
		})
	}
}
