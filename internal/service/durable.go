package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"toorjah"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
	"toorjah/internal/wal"
)

// OpenDurable opens (or creates) the durable state under wopts.Dir and
// returns the recovered database plus the live log. Each schema relation
// comes from, in order of preference: the table WAL recovery rebuilt
// (latest valid snapshot + replayed tail), attached as it is, else its CSV
// seed file in csvDir ("" skips seeding), else an absent table (the facade
// auto-binds it empty).
// On a first boot — nothing recovered — the seeded database is snapshotted
// synchronously before returning, so the WAL tail always has a durable
// base state to replay onto and the CSV seed is never re-read again.
// Recovery ends with a sweep of the symbol table, which frees every value
// the replayed history interned and the recovered tables no longer hold.
//
// Recovered relations missing from the schema are kept on disk but not
// loaded; a warning notes each one. A recovered arity that contradicts the
// schema is an error — silently serving rows under the wrong shape would
// corrupt answers.
func OpenDurable(sch *schema.Schema, csvDir string, wopts wal.Options) (*storage.Database, *wal.Log, error) {
	l, rec, err := wal.Open(wopts)
	if err != nil {
		return nil, nil, err
	}
	logger := wopts.Logger
	db := storage.NewDatabase()
	seeded := false
	for _, rel := range sch.Relations() {
		if t, ok := rec.Relations[rel.Name]; ok {
			if t.Arity != rel.Arity() {
				closeQuiet(l)
				return nil, nil, fmt.Errorf(
					"service: recovered relation %s has arity %d, schema says %d — refusing to serve reshaped data",
					rel.Name, t.Arity, rel.Arity())
			}
			if err := db.Attach(t); err != nil {
				closeQuiet(l)
				return nil, nil, err
			}
			continue
		}
		if csvDir == "" {
			continue
		}
		n, err := loadCSVRelation(db, rel, csvDir)
		if err != nil {
			closeQuiet(l)
			return nil, nil, err
		}
		seeded = seeded || n > 0
	}
	if logger != nil {
		for name := range rec.Relations {
			if sch.Relation(name) == nil {
				logger.Warn("recovered relation absent from the schema; leaving its state on disk unloaded",
					"relation", name)
			}
		}
	}
	if !rec.HadSnapshot && seeded {
		if err := l.WriteSnapshot(databaseStates(sch, db)); err != nil {
			closeQuiet(l)
			return nil, nil, fmt.Errorf("service: writing the initial snapshot: %w", err)
		}
	}
	sym.Default.Sweep()
	return db, l, nil
}

func closeQuiet(l *wal.Log) {
	// The open failed for an unrelated reason; the close error cannot
	// improve on it.
	_ = l.Close()
}

// loadCSVRelation seeds one relation of db from its CSV file in dir; it
// reports how many rows it loaded (0 when the file is absent, and then no
// table is created).
func loadCSVRelation(db *storage.Database, rel *schema.Relation, dir string) (int, error) {
	path := filepath.Join(dir, rel.Name+".csv")
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	rows, err := storage.ReadCSVRows(rel.Name, rel.Arity(), f)
	f.Close()
	if err != nil {
		return 0, err
	}
	dbt, err := db.Create(rel.Name, rel.Arity())
	if err != nil {
		return 0, err
	}
	return dbt.InsertAll(rows), nil
}

// databaseStates reads a pinned version of every schema relation present
// in db, in name order — the bootstrap snapshot source — under a hold of the
// symbol table.
func databaseStates(sch *schema.Schema, db *storage.Database) []wal.RelationState {
	h := sym.Default.Hold()
	defer h.Release()
	var states []wal.RelationState
	for _, rel := range sch.Relations() {
		t := db.Table(rel.Name)
		if t == nil {
			continue
		}
		snap := t.Snapshot()
		states = append(states, wal.RelationState{
			Name:  rel.Name,
			Arity: rel.Arity(),
			Epoch: snap.Epoch(),
			Rows:  snap.Rows(),
		})
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Name < states[j].Name })
	return states
}

// WireWAL connects a fully bound system to the log: every applied mutation
// batch appends (and, under -fsync always, reaches disk) before its
// acknowledgement, and snapshots read the system's pinned relation
// versions. Call it after BindDatabase and before serving traffic.
func WireWAL(sys *toorjah.System, l *wal.Log) {
	sys.SetCommitHook(l.AppendCommit)
	l.SetSource(func() []wal.RelationState {
		dump := sys.DataSnapshot()
		states := make([]wal.RelationState, 0, len(dump))
		for name, d := range dump {
			states = append(states, wal.RelationState{
				Name: name, Arity: d.Arity, Epoch: d.Epoch, Rows: d.Rows,
			})
		}
		sort.Slice(states, func(i, j int) bool { return states[i].Name < states[j].Name })
		return states
	})
}

// WithWAL surfaces a write-ahead log on the server: /metrics gains the
// toorjah_wal_* families. The log itself is wired to the system by WireWAL
// — this option only makes it observable.
func WithWAL(l *wal.Log) Option {
	return func(s *Server) { s.registerWALCollectors(l) }
}

// registerWALCollectors exposes the log's counters as scrape-time series.
func (s *Server) registerWALCollectors(l *wal.Log) {
	m := s.metrics
	m.CounterFunc("toorjah_wal_appends_total",
		"Mutation batches appended to the write-ahead log.",
		func() float64 { return float64(l.Stats().Appends) })
	m.CounterFunc("toorjah_wal_appended_bytes_total",
		"Bytes appended to the write-ahead log.",
		func() float64 { return float64(l.Stats().AppendedBytes) })
	m.CounterFunc("toorjah_wal_syncs_total",
		"fsync calls completed on the active WAL segment.",
		func() float64 { return float64(l.Stats().Syncs) })
	m.CounterFunc("toorjah_wal_errors_total",
		"WAL append, fsync, rotation or snapshot failures (durability degraded, serving continues).",
		func() float64 { return float64(l.Stats().Errors) })
	m.CounterFunc("toorjah_wal_segments_sealed_total",
		"WAL segments sealed by the size cap or a snapshot.",
		func() float64 { return float64(l.Stats().SegmentsSealed) })
	m.CounterFunc("toorjah_wal_segments_archived_total",
		"Sealed WAL segments and superseded snapshots moved to the archive directory.",
		func() float64 { return float64(l.Stats().SegmentsArchived) })
	m.CounterFunc("toorjah_wal_snapshots_total",
		"Epoch-stamped snapshot files written.",
		func() float64 { return float64(l.Stats().Snapshots) })
	m.GaugeFunc("toorjah_wal_active_segment_bytes",
		"Bytes in the active (unsealed) WAL segment.",
		func() float64 { return float64(l.Stats().ActiveBytes) })
	m.GaugeFunc("toorjah_wal_recovery_duration_seconds",
		"How long startup recovery (snapshot load + tail replay) took.",
		func() float64 { return l.Stats().Recovery.DurationMS / 1000 })
	m.GaugeFunc("toorjah_wal_recovery_records_replayed",
		"Tail records replayed on top of the snapshot at startup.",
		func() float64 { return float64(l.Stats().Recovery.RecordsReplayed) })
}
