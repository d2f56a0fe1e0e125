package service

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"toorjah"
	"toorjah/internal/oracle"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
)

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

// logged applies script to a WAL-backed store over empty tables of sch in
// dir — the hook wired, a snapshot after each batch i that snapshot(i) picks
// — closes the log cleanly, and returns what recovery rebuilds from dir.
func logged(t *testing.T, sch *schema.Schema, dir string, script []oracle.Batch, snapshot func(i int) bool) *storage.Database {
	t.Helper()
	db, l, err := OpenDurable(sch, "", quietWALOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Nothing recovered and no CSV seed: materialize the schema's tables so
	// the script mutates the same hooked tables the bound system serves.
	for _, rel := range sch.Relations() {
		if _, err := db.Create(rel.Name, rel.Arity()); err != nil {
			t.Fatal(err)
		}
	}
	sys := toorjah.NewSystem(sch)
	if err := sys.BindDatabase(db); err != nil {
		t.Fatal(err)
	}
	WireWAL(sys, l)
	for i, b := range script {
		oracle.Apply(db, []oracle.Batch{b})
		if snapshot(i) {
			if err := l.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, l2, err := OpenDurable(sch, "", quietWALOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l2.Close() })
	return recovered
}

// TestDurablePrefixReplayProperty is the randomized durability property:
// for any prefix of applied batches — a generated case's tables, then a
// mutation script drawn from its values, interleaved with snapshots taken at
// random points — recovering the WAL directory yields a store
// observationally identical to a fresh store fed the same prefix: same
// epochs and same rows. That the recovered store answers the reference is
// TestOracleService's recovered surface.
func TestDurablePrefixReplayProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := oracle.Generate(seed)
			rng := rand.New(rand.NewSource(seed))
			history := oracle.Mutations(rng, c.Schema, c.DB, 6+rng.Intn(14))
			prefix := append(c.Load(), history[:1+rng.Intn(len(history))]...)
			recDB := logged(t, c.Schema, t.TempDir(), prefix, func(int) bool { return rng.Intn(4) == 0 })
			// The never-persisted twin fed the same prefix.
			twinDB := oracle.Build(c.Schema, prefix)

			// Storage-level equivalence: epochs and live rows per relation.
			// A relation the WAL never saw (all its batches applied zero
			// rows) is absent from recovery; the restarted service binds it
			// fresh — epoch 1, no rows — which is what the twin holds too.
			for _, rel := range c.Schema.Relations() {
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
		})
	}
}
