package cache_test

import (
	"context"
	"fmt"
	"testing"

	"toorjah"
	"toorjah/internal/cache"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// benchKeys interns n distinct one-value bindings and an extraction for each.
func benchKeys(prefix string, n int) ([][]sym.ID, [][]storage.IRow) {
	keys := make([][]sym.ID, n)
	rows := make([][]storage.IRow, n)
	for i := range keys {
		k := fmt.Sprintf("%s%d", prefix, i)
		keys[i] = sym.InternAll([]string{k})
		rows[i] = []storage.IRow{storage.Row{k, "v"}.Intern()}
	}
	return keys, rows
}

// BenchmarkCacheWarmGet is the repo benchmark's serve-hot shape at the cache
// layer: 512 resident keys, one binding per call, every call a hit.
func BenchmarkCacheWarmGet(b *testing.B) {
	keys, rows := benchKeys("hot", 512)
	c := cache.New(cache.Options{})
	c.MultiPutSym("conf", 1, keys, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(keys)
		if _, ok := c.MultiGetSym("conf", 1, keys[k:k+1]); !ok[0] {
			b.Fatal("a resident key missed")
		}
	}
}

// BenchmarkCacheColdFill stores twice the capacity of distinct keys into a
// fresh cache, one per call: the first half fills it, the second half evicts.
func BenchmarkCacheColdFill(b *testing.B) {
	const capacity = 4096
	keys, rows := benchKeys("cold", 2*capacity)
	var c *cache.Cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(keys)
		if k == 0 {
			b.StopTimer()
			c = cache.New(cache.Options{Capacity: capacity})
			b.StartTimer()
		}
		c.MultiPutSym("conf", 1, keys[k:k+1], rows[k:k+1])
	}
}

// BenchmarkCacheContendedShard: GOMAXPROCS goroutines hitting the resident
// keys of one relation — the same few shards' locks — at once.
func BenchmarkCacheContendedShard(b *testing.B) {
	keys, rows := benchKeys("hot", 512)
	c := cache.New(cache.Options{})
	c.MultiPutSym("conf", 1, keys, rows)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for k := 0; pb.Next(); k = (k + 1) % len(keys) {
			if _, ok := c.MultiGetSym("conf", 1, keys[k:k+1]); !ok[0] {
				b.Error("a resident key missed")
				return
			}
		}
	})
}

// fillDefault stores twice the default capacity of distinct keys of relation
// other, so every shard is full and the cache holds DefaultCapacity entries.
func fillDefault(c *cache.Cache) {
	keys, rows := benchKeys("o", 2*cache.DefaultCapacity)
	c.MultiPutSym("other", 1, keys, rows)
}

// BenchmarkIngestBesideFullCache: one Insert batch into live and one cached
// read of it per iteration, beside a default cache that is empty or holds
// 65536 entries of another relation. What a write and the read after it cost
// must not depend on what else the cache holds.
func BenchmarkIngestBesideFullCache(b *testing.B) {
	for _, full := range []bool{false, true} {
		b.Run(fmt.Sprintf("full=%v", full), func(b *testing.B) {
			sch := schema.MustParse(`
				live^io(K, V)
				other^io(K, V)`)
			sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
			if err := sys.BindRows("live", toorjah.Row{"k", "v"}); err != nil {
				b.Fatal(err)
			}
			if err := sys.BindRows("other"); err != nil {
				b.Fatal(err)
			}
			if full {
				fillDefault(sys.AccessCache())
			}
			resident := sys.AccessCache().Snapshot()["other"].Entries
			q, err := sys.Prepare("q(V) :- live(k, V)")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := sys.Insert("live", toorjah.Row{fmt.Sprintf("k%d", i), "v"}); err != nil || n != 1 {
					b.Fatalf("insert: %d rows, %v", n, err)
				}
				res, err := q.Execute(context.Background())
				if err != nil || res.TotalAccesses() != 1 {
					b.Fatalf("the read after the write: %v, %v", res, err)
				}
			}
			b.StopTimer()
			// live's entry may have taken the place of one of other's, per shard.
			if got := sys.AccessCache().Snapshot()["other"].Entries; got < resident-cache.DefaultShards {
				b.Fatalf("other keeps %d entries of %d", got, resident)
			}
		})
	}
}

// BenchmarkSnapshotFullCache reads the statistics of a full default cache:
// what every /metrics scrape does six times.
func BenchmarkSnapshotFullCache(b *testing.B) {
	c := cache.New(cache.Options{})
	fillDefault(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := c.Snapshot()["other"].Entries; got != cache.DefaultCapacity {
			b.Fatalf("Snapshot counts %d entries, want %d", got, cache.DefaultCapacity)
		}
	}
}
