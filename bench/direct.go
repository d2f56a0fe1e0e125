package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"toorjah"
	"toorjah/internal/cache"
	"toorjah/internal/cq"
	"toorjah/internal/gen"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
	"toorjah/internal/wal"
)

// Direct-call measurements time one layer's public functions from a single
// goroutine, after every client has stopped: a fixed number of calls,
// repeated directReps times, the median repetition reported per call.
const directReps = 5

// perCall runs body directReps times (each run makes calls calls and
// returns how long they took) and returns the median time of one call, in
// nanoseconds.
func perCall(calls int, body func(rep int) time.Duration) float64 {
	took := make([]float64, directReps)
	for rep := range took {
		took[rep] = float64(body(rep))
	}
	return median(took) / float64(calls)
}

func scaled(cfg runConfig, n int) int {
	if cfg.quick {
		return max(n/100, 8)
	}
	return n
}

// internedPersons interns n person keys as one-value bindings.
func internedPersons(n int) [][]sym.ID {
	out := make([][]sym.ID, n)
	for k := range out {
		out[k] = []sym.ID{sym.Intern(person(k))}
	}
	return out
}

// directCacheGet is the warm cache hit: MultiGetSym over a hot set that is
// resident, one binding per call as a point query makes it.
func directCacheGet(cfg runConfig) (map[string]float64, error) {
	keys := internedPersons(hotKeys)
	c := cache.New(cache.Options{})
	rows := make([][]storage.IRow, len(keys))
	for k := range keys {
		rows[k] = []storage.IRow{confRow(cfg.seed, k, 0).Intern(), confRow(cfg.seed, k, 1).Intern()}
	}
	c.MultiPutSym("conf", 1, keys, rows)
	rounds := scaled(cfg, 400)
	d := perCall(rounds*len(keys), func(int) time.Duration {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for k := range keys {
				if _, ok := c.MultiGetSym("conf", 1, keys[k:k+1]); !ok[0] {
					panic("resident cache entry missed")
				}
			}
		}
		return time.Since(t0)
	})
	return map[string]float64{"cache.get_ns_per_access": d}, nil
}

// selectNS is one indexed point selection on a snapshot of n persons' conf
// rows, the storage call behind every access of a local relation.
func selectNS(cfg runConfig, persons int) (float64, error) {
	db := storage.NewDatabase()
	rows := make([]storage.Row, 0, 2*persons)
	for k := 0; k < persons; k++ {
		rows = append(rows, confRow(cfg.seed, k, 0), confRow(cfg.seed, k, 1))
	}
	if err := fillTable(db, "conf", 3, rows); err != nil {
		return 0, err
	}
	snap := db.Table("conf").Snapshot()
	keys := internedPersons(persons)
	snap.SelectBatchSym([]int{0}, keys[:1]) // builds the index outside the timing
	rounds := scaled(cfg, 20)
	d := perCall(rounds*len(keys), func(int) time.Duration {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for k := range keys {
				if got := snap.SelectBatchSym([]int{0}, keys[k:k+1]); len(got[0]) != 2 {
					panic("indexed selection lost a row")
				}
			}
		}
		return time.Since(t0)
	})
	return d, nil
}

// directCold covers what serve-cold pays per operation and serve-hot never
// does: parsing and planning a new text, a cache insert with eviction, and
// the peer's index probe.
func directCold(cfg runConfig, node0 *toorjah.System) (map[string]float64, error) {
	out := make(map[string]float64)
	n := scaled(cfg, 2000)
	parse := perCall(n, func(int) time.Duration {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			if _, err := cq.Parse(pointText(k)); err != nil {
				panic(err)
			}
		}
		return time.Since(t0)
	})
	out["cq.parse_us"] = parse / 1e3

	var perr error
	prepare := perCall(n, func(int) time.Duration {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			if _, err := node0.Prepare(pointText(k)); err != nil {
				perr = err
			}
		}
		return time.Since(t0)
	})
	if perr != nil {
		return nil, fmt.Errorf("prepare point query: %w", perr)
	}
	out["core.prepare_us.point"] = prepare / 1e3

	pub, err := publicationSystem(cfg.seed, q2QuickTuples)
	if err != nil {
		return nil, err
	}
	m := scaled(cfg, 100)
	q3 := perCall(m, func(int) time.Duration {
		t0 := time.Now()
		for k := 0; k < m; k++ {
			if _, err := pub.Prepare(gen.PublicationQueries[2]); err != nil {
				perr = err
			}
		}
		return time.Since(t0)
	})
	if perr != nil {
		return nil, fmt.Errorf("prepare q3: %w", perr)
	}
	out["core.prepare_us.q3"] = q3 / 1e3

	// Twice the cache's capacity of distinct keys: the second half evicts.
	keys := internedPersons(scaled(cfg, 2*accessCacheSize))
	row := [][]storage.IRow{{confRow(cfg.seed, 0, 0).Intern()}}
	put := perCall(len(keys), func(int) time.Duration {
		c := cache.New(cache.Options{})
		t0 := time.Now()
		for k := range keys {
			c.MultiPutSym("conf", 1, keys[k:k+1], row)
		}
		return time.Since(t0)
	})
	out["cache.put_ns_per_access"] = put

	if out["storage.select_ns_per_binding"], err = selectNS(cfg, scaled(cfg, 20000)); err != nil {
		return nil, err
	}
	return out, nil
}

// directQ2 times q2 under the other two executors and the storage probe
// that q2 makes 42845 times. The pipelined engine re-evaluates its rules per
// binding, which makes it quadratic in the instance: at q2Tuples one
// execution takes over half a minute at the commit that defined this
// benchmark, so it is timed on the q2QuickTuples instance instead.
func directQ2(cfg runConfig) (map[string]float64, error) {
	out := make(map[string]float64)
	ctx := context.Background()
	tuples := q2Tuples
	if cfg.quick {
		tuples = q2QuickTuples
	}
	exec := func(tuples int, e toorjah.Executor) (float64, int, error) {
		sys, err := publicationSystem(cfg.seed, tuples)
		if err != nil {
			return 0, 0, err
		}
		q, err := sys.Prepare(gen.PublicationQueries[1])
		if err != nil {
			return 0, 0, err
		}
		var accesses int
		var xerr error
		d := perCall(1, func(int) time.Duration {
			t0 := time.Now()
			res, err := q.Execute(ctx, toorjah.WithExecutor(e))
			if err != nil {
				xerr = err
				return 0
			}
			accesses = res.TotalAccesses()
			return time.Since(t0)
		})
		return d, accesses, xerr
	}
	d, _, err := exec(q2QuickTuples, toorjah.ExecutorPipelined)
	if err != nil {
		return nil, fmt.Errorf("pipelined q2: %w", err)
	}
	out["exec.pipelined_q2_ms"] = d / 1e6
	d, accesses, err := exec(tuples, toorjah.ExecutorNaive)
	if err != nil {
		return nil, fmt.Errorf("naive q2: %w", err)
	}
	out["exec.naive_q2_ms"] = d / 1e6
	out["exec.naive_q2_accesses"] = float64(accesses)
	if out["storage.select_ns_per_binding"], err = selectNS(cfg, scaled(cfg, 20000)); err != nil {
		return nil, err
	}
	return out, nil
}

// directIngest covers the write path's layers one at a time: interning,
// the copy-on-write table at the workload's live size, and the log under
// both ends of the fsync policy range.
func directIngest(cfg runConfig) (map[string]float64, error) {
	out := make(map[string]float64)

	n := scaled(cfg, 100000)
	fresh := make([][]string, directReps)
	for rep := range fresh {
		fresh[rep] = make([]string, n)
		for i := range fresh[rep] {
			fresh[rep][i] = "direct_" + strconv.Itoa(rep) + "_" + strconv.Itoa(i)
		}
	}
	intern := perCall(n, func(rep int) time.Duration {
		t0 := time.Now()
		for _, v := range fresh[rep] {
			sym.Intern(v)
		}
		return time.Since(t0)
	})
	out["sym.intern_ns"] = intern
	lookup := perCall(n, func(rep int) time.Duration {
		t0 := time.Now()
		for _, v := range fresh[rep] {
			if _, ok := sym.Lookup(v); !ok {
				panic("interned value not found")
			}
		}
		return time.Since(t0)
	})
	out["sym.lookup_ns"] = lookup

	// A table held at the workload's live size: every inserted batch is
	// followed by the deletion of the oldest, as the client does.
	batch := func(b int) []storage.Row {
		rows := make([]storage.Row, batchRows)
		for i := range rows {
			rows[i] = storage.Row{"k" + strconv.Itoa(liveKey(cfg.seed, b, i)), liveValue(b, i)}
		}
		return rows
	}
	tab, err := storage.NewDatabase().Create("live", 2)
	if err != nil {
		return nil, err
	}
	next := 0
	for ; next < windowBatches; next++ {
		tab.InsertAll(batch(next))
	}
	batches := scaled(cfg, 400)
	var insertNS, deleteNS [directReps]float64
	for rep := 0; rep < directReps; rep++ {
		for i := 0; i < batches; i, next = i+1, next+1 {
			in, out := batch(next), batch(next-windowBatches)
			t0 := time.Now()
			tab.InsertAll(in)
			t1 := time.Now()
			tab.DeleteAll(out)
			insertNS[rep] += float64(t1.Sub(t0))
			deleteNS[rep] += float64(time.Since(t1))
		}
	}
	out["storage.insert_us_per_batch64"] = median(insertNS[:]) / float64(batches) / 1e3
	out["storage.delete_us_per_batch64"] = median(deleteNS[:]) / float64(batches) / 1e3

	for _, policy := range []string{wal.FsyncAlways, wal.FsyncNever} {
		d, err := walAppend(cfg, policy, batch(0))
		if err != nil {
			return nil, err
		}
		out["wal.append_us_per_batch64."+policy] = d / 1e3
	}
	return out, nil
}

// walAppend times Log.AppendCommit of one 64-row batch under a policy.
func walAppend(cfg runConfig, policy string, rows []storage.Row) (float64, error) {
	dir, err := os.MkdirTemp("", "toorjah-bench-direct-wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(wal.Options{Dir: dir, Fsync: policy, Logger: quietLogger})
	if err != nil {
		return 0, fmt.Errorf("open wal (%s): %w", policy, err)
	}
	appends := scaled(cfg, 40)
	epoch := uint64(0)
	d := perCall(appends, func(int) time.Duration {
		t0 := time.Now()
		for i := 0; i < appends; i++ {
			epoch++
			l.AppendCommit(storage.CommitEvent{Relation: "live", Arity: 2, Op: storage.OpInsert, Epoch: epoch, Rows: rows})
		}
		return time.Since(t0)
	})
	if err := l.Close(); err != nil {
		return 0, fmt.Errorf("close wal (%s): %w", policy, err)
	}
	if st := l.Stats(); st.Errors > 0 {
		return 0, fmt.Errorf("wal (%s) reported %d append errors: %s", policy, st.Errors, st.LastError)
	}
	return d, nil
}
