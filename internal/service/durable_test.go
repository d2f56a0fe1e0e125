package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"toorjah"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
	"toorjah/internal/wal"
)

// quietWALOpts returns test WAL options that keep recovery warnings out of
// the test log unless they are errors.
func quietWALOpts(dir string) wal.Options {
	return wal.Options{
		Dir:    dir,
		Fsync:  wal.FsyncNever,
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})),
	}
}

// startDurableNode boots a durable server over the given directories and
// returns it with its test listener.
func startDurableNode(t *testing.T, sch *schema.Schema, csvDir, walDir string) (*httptest.Server, *toorjah.System, *wal.Log) {
	t.Helper()
	db, l, err := OpenDurable(sch, csvDir, quietWALOpts(walDir))
	if err != nil {
		t.Fatal(err)
	}
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	if err := sys.BindDatabase(db); err != nil {
		t.Fatal(err)
	}
	WireWAL(sys, l)
	srv := New(sys, toorjah.Options{}, WithWAL(l))
	return httptest.NewServer(srv.Handler()), sys, l
}

func ingestRows(t *testing.T, base, relation, op string, rows ...[]string) {
	t.Helper()
	var body bytes.Buffer
	for _, r := range rows {
		if err := json.NewEncoder(&body).Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	url := fmt.Sprintf("%s/ingest?relation=%s&op=%s", base, relation, op)
	resp, err := http.Post(url, "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest %s: status %d: %s", relation, resp.StatusCode, b)
	}
}

// TestDurableRestartPreservesStateAndEpochs is the service-level durability
// contract: a node that ingested batches over HTTP, restarted from its
// data dir, serves the same answers and the same epochs — and the CSV seed
// is not re-read on the second boot.
func TestDurableRestartPreservesStateAndEpochs(t *testing.T) {
	sch, err := schema.Parse(pubSchemaText)
	if err != nil {
		t.Fatal(err)
	}
	csvDir := t.TempDir()
	seed := "p1,alice\np2,bob\n"
	if err := os.WriteFile(filepath.Join(csvDir, "pub1.csv"), []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()

	ts, sys, l := startDurableNode(t, sch, csvDir, walDir)
	ingestRows(t, ts.URL, "conf", "insert", []string{"p1", "icde", "y2008"}, []string{"p2", "vldb", "y2007"})
	ingestRows(t, ts.URL, "rev", "insert", []string{"alice", "icde", "y2008"})
	ingestRows(t, ts.URL, "pub1", "insert", []string{"p3", "carol"})
	ingestRows(t, ts.URL, "pub1", "delete", []string{"p2", "bob"})
	wantEpochs := map[string]uint64{}
	for name, d := range sys.DataSnapshot() {
		wantEpochs[name] = d.Epoch
	}
	answers, _ := queryNDJSON(t, ts.URL+"/query?q="+strings.ReplaceAll(pubQuery, " ", "%20"))
	if strings.Join(answers, ";") != "alice" {
		t.Fatalf("pre-restart answers = %v", answers)
	}
	if l.Stats().Appends != 4 {
		t.Fatalf("wal appends = %d, want 4", l.Stats().Appends)
	}
	ts.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with the CSV seed *removed*: everything must come from the
	// WAL directory.
	if err := os.Remove(filepath.Join(csvDir, "pub1.csv")); err != nil {
		t.Fatal(err)
	}
	ts2, sys2, l2 := startDurableNode(t, sch, csvDir, walDir)
	defer ts2.Close()
	defer l2.Close()

	answers2, _ := queryNDJSON(t, ts2.URL+"/query?q="+strings.ReplaceAll(pubQuery, " ", "%20"))
	if strings.Join(answers2, ";") != "alice" {
		t.Fatalf("post-restart answers = %v", answers2)
	}
	got := sys2.DataSnapshot()
	for name, want := range wantEpochs {
		if got[name].Epoch != want {
			t.Errorf("relation %s: epoch %d after restart, want %d", name, got[name].Epoch, want)
		}
	}
	if rows := got["pub1"].Rows; len(rows) != 2 { // alice + carol, bob deleted
		t.Errorf("pub1 rows after restart: %v", rows)
	}

	// The restarted node keeps accepting ingest on top of recovered state.
	ingestRows(t, ts2.URL, "pub1", "insert", []string{"p4", "dave"})
	if e := sys2.DataSnapshot()["pub1"].Epoch; e != wantEpochs["pub1"]+1 {
		t.Errorf("epoch after post-restart ingest = %d, want %d", e, wantEpochs["pub1"]+1)
	}

	// The log keeps the recovery account.
	if rec := l2.Stats().Recovery; rec.RecordsReplayed != 4 || !rec.HadSnapshot {
		t.Errorf("recovery replayed %d records (want 4), had snapshot %v (want the first boot's)",
			rec.RecordsReplayed, rec.HadSnapshot)
	}

	// /metrics exposes the toorjah_wal_* families.
	exposition := scrapeMetrics(t, ts2.URL)
	checkExposition(t, exposition)
	for _, fam := range []string{"toorjah_wal_appends_total", "toorjah_wal_appended_bytes_total",
		"toorjah_wal_snapshots_total", "toorjah_wal_recovery_duration_seconds"} {
		if !strings.Contains(exposition, fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}
	if got := metricValue(t, exposition, "toorjah_wal_recovery_records_replayed"); got != 4 {
		t.Errorf("toorjah_wal_recovery_records_replayed = %v, want 4", got)
	}
}

// BenchmarkRecover is recovery's layer benchmark: OpenDurable over a log
// with no snapshot, so every record is replayed, into the table the node
// then serves. It reports per replayed record. "load" logs 300 000 arity-3
// rows inserted in 64-row batches, every eighth batch a delete of the 64
// oldest rows still live: recovery rebuilds a large table. "churn" logs
// bench's ingest-rw: 64-row batches of fresh values over 256 keys, the
// oldest deleted once 64 are held, 48 000 records: the history dwarfs the
// 4096 rows that survive it, and compaction cycles.
func BenchmarkRecover(b *testing.B) {
	b.Run("load", func(b *testing.B) {
		benchRecover(b, "r^ioo(A, B, C)", func(tab *storage.Table, batch []storage.Row) {
			row := func(i int) storage.Row {
				return storage.Row{"k" + strconv.Itoa(i), "v" + strconv.Itoa(i%1000), "w" + strconv.Itoa(i%37)}
			}
			for n, inserted, deleted := 0, 0, 0; inserted < 300000; n++ {
				if n%8 == 7 {
					for i := range batch {
						batch[i] = row(deleted + i)
					}
					deleted += len(batch)
					tab.DeleteAll(batch)
					continue
				}
				for i := range batch {
					batch[i] = row(inserted + i)
				}
				inserted += len(batch)
				tab.InsertAll(batch)
			}
		})
	})
	b.Run("churn", func(b *testing.B) {
		benchRecover(b, "r^io(K, V)", func(tab *storage.Table, batch []storage.Row) {
			row := func(n, i int) storage.Row {
				return storage.Row{"k" + strconv.Itoa((n*64+i)*7919%256), "v" + strconv.Itoa(n) + "_" + strconv.Itoa(i)}
			}
			for n := 0; n < 24000; n++ {
				for i := range batch {
					batch[i] = row(n, i)
				}
				tab.InsertAll(batch)
				if n >= 64 {
					for i := range batch {
						batch[i] = row(n-64, i)
					}
					tab.DeleteAll(batch)
				}
			}
		})
	})
}

// benchRecover logs what fill writes, through 64-row batches, into relation
// r of the schema, then times OpenDurable over the log.
func benchRecover(b *testing.B, schemaText string, fill func(tab *storage.Table, batch []storage.Row)) {
	dir := b.TempDir()
	l, _, err := wal.Open(quietWALOpts(dir))
	if err != nil {
		b.Fatal(err)
	}
	sch := schema.MustParse(schemaText)
	tab := storage.NewTable("r", sch.Relation("r").Arity())
	tab.SetCommitHook(l.AppendCommit)
	fill(tab, make([]storage.Row, 64))
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	records := 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocated, mallocs := ms.TotalAlloc, ms.Mallocs
	var db *storage.Database
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var l *wal.Log
		db, l, err = OpenDurable(sch, "", quietWALOpts(dir))
		if err != nil {
			b.Fatal(err)
		}
		records += l.Stats().Recovery.RecordsReplayed
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		if got := db.Table("r"); got == nil || got.Epoch() != tab.Epoch() {
			b.Fatalf("recovered %v, want the table at epoch %d", got, tab.Epoch())
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
	b.ReportMetric(float64(ms.TotalAlloc-allocated)/float64(records), "B/record")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(records), "allocs/record")
	// What the recovered node holds once OpenDurable has returned: the heap
	// after two collections, the logged table beside it, and the symbols.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MB")
	b.ReportMetric(float64(sym.Default.Len()), "symbols")
	runtime.KeepAlive(db)
}
