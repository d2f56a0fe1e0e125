package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"toorjah"
	"toorjah/internal/service"
	"toorjah/internal/storage"
	"toorjah/internal/wal"
)

// ingest-rw sizes: each ingest is one batch of batchRows fresh rows over a
// pool of liveKeys keys; the client deletes its oldest batch once it holds
// more than windowBatches, so about windowBatches × batchRows rows stay live
// and tombstone compaction cycles for as long as the run.
const (
	batchRows     = 64
	liveKeys      = 256
	windowBatches = 64
	// fsyncPolicy skips fsync(2) and nothing else: the record is encoded,
	// checksummed and written to the segment under the table lock, segments
	// rotate and the log is recovered as under toorjahd's default, always.
	// Under always two thirds of every round were the sandbox's virtual
	// disk, which is not a device: it and the cold caches after each wait
	// moved every figure of this workload by 30% with the host's load. The
	// fsync itself is timed per layer (wal.append_us_per_batch64.always).
	fsyncPolicy = wal.FsyncNever
	// walSegmentBytes makes segments seal several times within one run.
	walSegmentBytes = 1 << 20
)

const ingestSchema = `live^io(K, V)`

// liveKey is the key of row i of batch b: a pure function, so a reader can
// tell for any value it is shown whether that row was ever sent under the
// key it asked for.
func liveKey(seed int64, b, i int) int {
	return int(mix(mix(uint64(seed))^uint64(b)<<8^uint64(i)) % liveKeys)
}

func liveValue(b, i int) string {
	return "v" + strconv.Itoa(b) + "_" + strconv.Itoa(i)
}

// parseLiveValue inverts liveValue.
func parseLiveValue(v string) (b, i int, ok bool) {
	rest, found := strings.CutPrefix(v, "v")
	if !found {
		return 0, 0, false
	}
	bs, is, found := strings.Cut(rest, "_")
	if !found {
		return 0, 0, false
	}
	b, errB := strconv.Atoi(bs)
	i, errI := strconv.Atoi(is)
	return b, i, errB == nil && errI == nil
}

// batchBody is the NDJSON /ingest body of batch b, and the bytes of row data
// in it (the base of wal.bytes_per_row_byte).
func batchBody(seed int64, b int) (body []byte, rowBytes int) {
	var buf bytes.Buffer
	for i := 0; i < batchRows; i++ {
		k, v := "k"+strconv.Itoa(liveKey(seed, b, i)), liveValue(b, i)
		rowBytes += len(k) + len(v)
		buf.WriteString(`["` + k + `","` + v + `"]` + "\n")
	}
	return buf.Bytes(), rowBytes
}

// ingestState is what the read-your-writes check needs to know: batches
// [oldest, acked) are live, batches below oldest deleted, and sent counts
// the batches whose insert was started.
type ingestState struct {
	seed                int64
	sent, acked, oldest int
}

// checkRead verifies one read of key: every value is a row that was sent
// under that key and not deleted since, and every row acknowledged and not
// deleted for the key is there.
func (s *ingestState) checkRead(key int, values []string) string {
	seen := make(map[[2]int]bool)
	for _, v := range values {
		b, i, ok := parseLiveValue(v)
		if !ok || i < 0 || i >= batchRows || b < 0 || b >= s.sent || liveKey(s.seed, b, i) != key {
			return "value " + v + " was never sent under this key"
		}
		if b < s.oldest {
			return "value " + v + " was deleted before this read"
		}
		seen[[2]int{b, i}] = true
	}
	for b := s.oldest; b < s.acked; b++ {
		for i := 0; i < batchRows; i++ {
			if liveKey(s.seed, b, i) == key && !seen[[2]int{b, i}] {
				return "acknowledged value " + liveValue(b, i) + " is missing"
			}
		}
	}
	return ""
}

// compareRecovered is the recovered ≡ live check: the table OpenDurable
// rebuilt from the log must hold exactly the rows, at exactly the epoch, the
// serving table held when the log was closed.
func compareRecovered(live []storage.Row, liveEpoch uint64, recovered []storage.Row, recoveredEpoch uint64) error {
	if recoveredEpoch != liveEpoch {
		return fmt.Errorf("recovered epoch %d, live epoch %d", recoveredEpoch, liveEpoch)
	}
	if len(recovered) != len(live) {
		return fmt.Errorf("recovered %d rows, live table had %d", len(recovered), len(live))
	}
	keys := func(rows []storage.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.Key()
		}
		sort.Strings(out)
		return out
	}
	a, b := keys(live), keys(recovered)
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("recovered rows differ from the live table")
		}
	}
	return nil
}

func answerValue(line string) string {
	return strings.TrimSuffix(strings.TrimPrefix(line, `{"answer":["`), `"]}`)
}

// setupIngestRW is the durable node: writes beside reads on one relation.
func setupIngestRW(cfg runConfig, mw0, _ *middleware) (*instance, error) {
	sch, err := toorjah.ParseSchema(ingestSchema)
	if err != nil {
		return nil, err
	}
	sys, err := boundSystem(sch, map[string][]storage.Row{"live": nil}, toorjah.WithCache(toorjah.CacheOptions{}))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "toorjah-bench-wal-")
	if err != nil {
		return nil, err
	}
	wopts := wal.Options{Dir: dir, Fsync: fsyncPolicy, SegmentMaxBytes: walSegmentBytes, Logger: quietLogger}
	wlog, _, err := wal.Open(wopts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open wal: %w", err)
	}
	service.WireWAL(sys, wlog)
	n0, err := startNode(sys, mw0, service.WithWAL(wlog))
	if err != nil {
		_ = wlog.Close() // the listen error is the one to report
		os.RemoveAll(dir)
		return nil, err
	}

	st := &ingestState{seed: cfg.seed}
	insertURL := n0.url + "/ingest?relation=live"
	deleteURL := insertURL + "&op=delete"
	readURLs := make([]string, liveKeys)
	for k := range readURLs {
		readURLs[k] = queryURL(n0.url, "q(V) :- live(k"+strconv.Itoa(k)+", V)")
	}

	// ingestReq sends one /ingest request and checks it applied whole.
	ingestReq := func(ctx context.Context, cl *client, tr *tracer, target string, body []byte, rowBytes int, timed bool) bool {
		opID := ""
		if tr != nil {
			opID = cl.nextOp()
		}
		start := time.Now()
		ir, status, total, err := cl.ingest(ctx, target, body, opID)
		rec := cl.rec
		rec.attempted++
		switch {
		case err != nil:
			rec.fail(err.Error())
			return false
		case status != 200:
			rec.fail(fmt.Sprintf("ingest status %d", status))
			return false
		case ir.Applied != batchRows:
			rec.fail(fmt.Sprintf("ingest applied %d of %d rows", ir.Applied, batchRows))
			return false
		}
		if tr != nil {
			tr.addIngest(start, total, opID, ir, n0)
		} else if timed {
			rec.ingestMS = append(rec.ingestMS, ms(total))
			rec.rows += int64(ir.Applied)
			rec.rowBytes += int64(rowBytes)
		}
		return true
	}
	// write ingests a fresh batch, then — with the window full — deletes
	// the oldest one.
	write := func(ctx context.Context, cl *client, tr *tracer, timed bool) {
		b := st.sent
		st.sent++
		body, rowBytes := batchBody(st.seed, b)
		if !ingestReq(ctx, cl, tr, insertURL, body, rowBytes, timed) {
			return
		}
		st.acked = b + 1
		if st.acked-st.oldest > windowBatches {
			body, rowBytes := batchBody(st.seed, st.oldest)
			if ingestReq(ctx, cl, tr, deleteURL, body, rowBytes, timed) {
				st.oldest++
			}
		}
	}
	read := func(ctx context.Context, cl *client, tr *tracer) {
		key := cl.rng.Intn(liveKeys)
		queryOp(ctx, cl, tr, n0, nil, readURLs[key], func(rep *reply) string {
			// The structural checks run against what arrived; the content
			// is checked value by value.
			if why := rep.check(rep.Got, -1); why != "" {
				return why
			}
			values := make([]string, len(rep.Lines))
			for i, l := range rep.Lines {
				values[i] = answerValue(l)
			}
			return st.checkRead(key, values)
		})
	}

	inst := &instance{node0: n0, rssOps: 3000}
	inst.close = func() {
		n0.close()
		_ = wlog.Close() // closing twice is harmless; finish reports the first close
		os.RemoveAll(dir)
	}
	inst.warm = func(ctx context.Context, cl *client) error {
		cl.keepLines = true
		// Fill the window until the first deletion has happened, so the
		// timed phase starts in the insert+delete steady state.
		for st.oldest == 0 {
			write(ctx, cl, nil, false)
			if cl.rec.failed > 0 {
				return fmt.Errorf("ingest during warm-up: %s", cl.rec.failure)
			}
		}
		for i := 0; i < 8; i++ {
			read(ctx, cl, nil)
		}
		return nil
	}
	// One operation is one write and one read, in that order, every time: a
	// round of the closed loop always holds the same work, so the time
	// between two reads is the cost of an ingest (insert, delete, two
	// fsyncs) plus the read that follows it and re-probes.
	inst.op = func(ctx context.Context, cl *client, tr *tracer) {
		write(ctx, cl, tr, true)
		read(ctx, cl, tr)
	}
	inst.finish = func(ctx context.Context) (map[string]float64, error) {
		live := sys.DataSnapshot()["live"]
		if err := wlog.Close(); err != nil {
			return nil, fmt.Errorf("close wal: %w", err)
		}
		t0 := time.Now()
		db2, log2, err := service.OpenDurable(sch, "", wopts)
		took := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("reopen the log: %w", err)
		}
		rstats := log2.Stats().Recovery
		if err := log2.Close(); err != nil {
			return nil, fmt.Errorf("close the reopened log: %w", err)
		}
		tab := db2.Table("live")
		if tab == nil {
			return nil, fmt.Errorf("recovery lost the live relation")
		}
		snap := tab.Snapshot()
		if err := compareRecovered(live.Rows, live.Epoch, snap.Rows(), snap.Epoch()); err != nil {
			return nil, err
		}
		return map[string]float64{
			"recover_s":                took.Seconds(),
			"wal.replay_us_per_record": ratio(rstats.DurationMS*1000, float64(rstats.RecordsReplayed)),
		}, nil
	}
	inst.direct = func() (map[string]float64, error) { return directIngest(cfg) }
	if cfg.quick {
		inst.maxOps = 120
	}
	return inst, nil
}

// addIngest builds one traced /ingest's span tree: client, node0's handler
// span, and under it the part the response reports as elapsed_ms — applying
// the batch, WAL append and fsync included; the rest of the handler is
// decoding the body and encoding the reply.
func (t *tracer) addIngest(start time.Time, total time.Duration, opID string, ir ingestReply, n0 *node) {
	root := &spanNode{Name: "client", StartUS: t.us(start), DurUS: us(total)}
	if hs := n0.mw.take(opID); len(hs) == 1 {
		h := root.child("service.ingest_handler", t.us(hs[0].start), us(hs[0].end.Sub(hs[0].start)))
		apply := ir.ElapsedMS * 1000
		if apply > h.DurUS {
			apply = h.DurUS
		}
		h.child("apply", h.end()-apply, apply)
		t.ingestHandlerUS = append(t.ingestHandlerUS, h.DurUS)
		t.decodeUS = append(t.decodeUS, h.DurUS-apply)
	}
	t.ops = append(t.ops, opTrace{Op: len(t.ops) + 1, Kind: "ingest", Root: root})
}
