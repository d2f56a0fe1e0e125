package toorjah

// Federation benchmarks: the publication workload executed over two
// in-process toorjahd-style peer nodes (httptest servers speaking the
// /probe protocol), every relation remote. The real HTTP round trip
// replaces the simulated WithLatency sleep of the local batching
// benchmarks, so batched vs unbatched shows what the batcher buys against
// an actual network stack; the access count is identical either way (the
// paper's cost model is untouched by federation) and is the gated metric.

import (
	"context"
	"net/http/httptest"
	"testing"

	"toorjah/internal/gen"
	"toorjah/internal/remote"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
)

// benchRemoteSystem shards the publication schema round-robin across two
// peer nodes and returns a system sourcing everything from them.
func benchRemoteSystem(b testing.TB, maxBatch int) *System {
	b.Helper()
	sch, db := gen.Publication(1, gen.SmallPublication())
	var shards [2][]*schema.Relation
	for i, rel := range sch.Relations() {
		shards[i%2] = append(shards[i%2], rel)
	}
	var specs []string
	for _, shard := range shards {
		ssch, err := schema.New(shard...)
		if err != nil {
			b.Fatal(err)
		}
		sdb := storage.NewDatabase()
		for _, rel := range shard {
			tab, err := sdb.Create(rel.Name, rel.Arity())
			if err != nil {
				b.Fatal(err)
			}
			if t := db.Table(rel.Name); t != nil {
				tab.InsertAll(t.Snapshot().Rows())
			}
		}
		reg, err := source.FromDatabase(ssch, sdb, 0)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(remote.PeerMux(reg))
		b.Cleanup(ts.Close)
		specs = append(specs, ts.URL)
	}
	return attach(b, NewSystem(sch.Clone(), WithMaxBatch(maxBatch)), specs...)
}

// benchRemote runs the Fig. 7 query fully federated with the fast-failing
// executor.
func benchRemote(b *testing.B, maxBatch int) {
	sys := benchRemoteSystem(b, maxBatch)
	q, err := sys.Prepare(gen.PublicationQueries[0])
	if err != nil {
		b.Fatal(err)
	}
	var accesses, batches int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := q.Execute(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		accesses, batches = r.TotalAccesses(), r.TotalBatches()
	}
	b.ReportMetric(float64(accesses), "accesses")
	b.ReportMetric(float64(batches), "roundtrips")
}

func BenchmarkRemoteFastFail_Unbatched(b *testing.B) { benchRemote(b, -1) }
func BenchmarkRemoteFastFail_Batch16(b *testing.B)   { benchRemote(b, 16) }
