package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toorjah"
	"toorjah/internal/gen"
	"toorjah/internal/storage"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 3 {
		t.Errorf("median(9,1,5,3) = %v, want the nearest-rank 3", got)
	}
	// A p99 is trusted with at least ten samples beyond it: 1000 samples
	// are the fewest that leave ten.
	for _, c := range []struct{ n, want int }{{1000, 10}, {999, 9}, {1600, 16}, {100, 1}, {0, 0}} {
		if got := beyond(c.n, 99); got != c.want {
			t.Errorf("beyond(%d, 99) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	root := &spanNode{Name: "client", StartUS: 0, DurUS: 100}
	root.child("a", 10, 30) // 10..40
	root.child("b", 30, 30) // 30..60, overlaps a by 10
	root.child("c", 90, 30) // 90..120, clipped to the parent's end
	root.child("d", 45, 5)  // inside b
	if got := root.self(); got != 100-50-10 {
		t.Errorf("self with overlapping children = %v, want 40", got)
	}
	leaf := &spanNode{StartUS: 5, DurUS: 7}
	if leaf.self() != 7 {
		t.Errorf("a leaf's self time is its duration, got %v", leaf.self())
	}
	// Self times of a properly nested tree add up to the root's duration.
	tree := &spanNode{Name: "client", StartUS: 0, DurUS: 50}
	h := tree.child("service.handler", 5, 40)
	graft(h, spanJSON{Name: "query", DurMS: 0.030, Children: []spanJSON{
		{Name: "pipeline", StartMS: 0.002, DurMS: 0.025, Children: []spanJSON{{Name: "cache-lookup", StartMS: 0.005, DurMS: 0.004}}},
	}})
	s := summarize([]opTrace{{Root: tree}})
	if math.Abs(s.selfSum()-50) > 1e-6 {
		t.Errorf("self times sum to %v, want the client span's 50", s.selfSum())
	}
	if q := h.Children[0]; math.Abs(q.end()-h.end()) > 1e-9 {
		t.Errorf("the server's root must end with the handler span: %v vs %v", q.end(), h.end())
	}
}

// The serve-cold order must keep every key out of both caches' reach: a key
// returns only after more distinct keys than the access cache (65536) or the
// plan cache (1024) holds.
func TestColdWalkStaysBeyondCacheReach(t *testing.T) {
	w := newColdWalk(1, confPersons)
	last := make(map[int]int, confPersons)
	minGap := math.MaxInt
	for op := 1; op <= 2*confPersons; op++ {
		k := w.next()
		if at, ok := last[k]; ok && op-at < minGap {
			minGap = op - at
		}
		last[k] = op
	}
	// Every key between two visits of k is distinct (a permutation), so the
	// gap in operations is the gap in distinct keys.
	if minGap <= accessCacheSize || minGap <= planCacheSize {
		t.Errorf("a key came back after %d operations, within cache reach", minGap)
	}
}

// The end-to-end timings are the mean of the five fastest samples, and the
// rate comes from the gaps between query completions.
func TestFastMeanAndGaps(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000, 999, ..., 1
	}
	if got := fastMean(xs); got != 3 {
		t.Errorf("fastMean(1..1000) = %v, want the mean of 1..5", got)
	}
	if got := fastMean([]float64{7, 3}); got != 5 {
		t.Errorf("fastMean of two samples = %v, want their mean", got)
	}
	if got := fastMean(nil); got != 0 {
		t.Errorf("fastMean of no samples = %v, want 0", got)
	}
	gaps := gapsMS([]float64{0.5, 0.1, 0.25}) // completion times in seconds, any order
	if len(gaps) != 2 || math.Abs(gaps[0]-150) > 1e-9 || math.Abs(gaps[1]-250) > 1e-9 {
		t.Errorf("gapsMS = %v, want [150 250]", gaps)
	}
}

func stream(lines ...string) *bufio.Reader {
	return bufio.NewReader(strings.NewReader(strings.Join(lines, "\n")))
}

// The checker must count a dropped row, an extra row, a changed row, a
// truncated stream and a wrong access count as failures — and nothing else.
func TestCheckerCatchesWrongReplies(t *testing.T) {
	rows := [][]string{{"c1", "y1990"}, {"c2", "y1991"}}
	want := digestRows(rows)
	a, b := string(answerLine(rows[0])), string(answerLine(rows[1]))
	done := `{"done":true,"answers":2,"accesses":1,"elapsed_ms":0.1}`
	cases := []struct {
		name  string
		lines []string
		ok    bool
	}{
		{"complete", []string{a, b, done}, true},
		{"reordered", []string{b, a, done, ""}, true},
		{"dropped row", []string{a, done}, false},
		{"extra row", []string{a, b, string(answerLine([]string{"c3", "y1992"})), done}, false},
		{"duplicated row", []string{a, a, done}, false},
		{"changed row", []string{a, string(answerLine([]string{"c2", "y1999"})), done}, false},
		{"truncated stream", []string{a, b}, false},
		{"truncated flag", []string{a, b, `{"done":true,"accesses":1,"truncated":true}`}, false},
		{"error line", []string{a, `{"error":"boom"}`}, false},
		{"wrong access count", []string{a, b, `{"done":true,"accesses":2}`}, false},
	}
	for _, c := range cases {
		rep := reply{Status: 200}
		if err := readStream(stream(c.lines...), &rep, false, func() {}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if why := rep.check(want, 1); (why == "") != c.ok {
			t.Errorf("%s: check = %q, want ok=%v", c.name, why, c.ok)
		}
	}
	// Corrupting the expected hash fails a correct reply too.
	rep := reply{Status: 200}
	if err := readStream(stream(a, b, done), &rep, false, func() {}); err != nil {
		t.Fatal(err)
	}
	bad := want
	bad.Sum++
	if rep.check(bad, 1) == "" {
		t.Error("a corrupted expected hash went unnoticed")
	}
	if (&reply{Status: 503}).check(want, -1) == "" {
		t.Error("a refused request went unnoticed")
	}
}

func TestCompareRecovered(t *testing.T) {
	live := []storage.Row{{"k1", "v0_1"}, {"k2", "v0_2"}, {"k3", "v1_0"}}
	same := []storage.Row{live[2], live[0], live[1]}
	if err := compareRecovered(live, 7, same, 7); err != nil {
		t.Errorf("identical tables: %v", err)
	}
	if compareRecovered(live, 7, same[:2], 7) == nil {
		t.Error("a row missing from the recovered table went unnoticed")
	}
	if compareRecovered(live, 7, same, 6) == nil {
		t.Error("a recovered epoch behind the live one went unnoticed")
	}
	swapped := []storage.Row{live[0], live[1], {"k3", "v1_9"}}
	if compareRecovered(live, 7, swapped, 7) == nil {
		t.Error("a changed row went unnoticed")
	}
}

func TestReadYourWritesCheck(t *testing.T) {
	st := &ingestState{seed: 1, sent: 4, acked: 3, oldest: 1} // batch 0 deleted, batch 3 in flight
	key := liveKey(1, 1, 0)
	var mine []string // everything the client must see under key
	for b := 1; b < 3; b++ {
		for i := 0; i < batchRows; i++ {
			if liveKey(1, b, i) == key {
				mine = append(mine, liveValue(b, i))
			}
		}
	}
	if why := st.checkRead(key, mine); why != "" {
		t.Fatalf("a complete read failed: %s", why)
	}
	if st.checkRead(key, mine[1:]) == "" {
		t.Error("a missing acknowledged value went unnoticed")
	}
	if st.checkRead(key, append([]string{"v9_0"}, mine...)) == "" {
		t.Error("a never-sent value went unnoticed")
	}
	if st.checkRead(key, append([]string{"bogus"}, mine...)) == "" {
		t.Error("a malformed value went unnoticed")
	}
	for i := 0; i < batchRows; i++ { // a row of another key
		if liveKey(1, 1, i) != key {
			if st.checkRead(key, append([]string{liveValue(1, i)}, mine...)) == "" {
				t.Error("a value sent under another key went unnoticed")
			}
			break
		}
	}
	// A deleted row, under its real key.
	key0 := liveKey(1, 0, 0)
	var live0 []string
	for b := 1; b < 3; b++ {
		for i := 0; i < batchRows; i++ {
			if liveKey(1, b, i) == key0 {
				live0 = append(live0, liveValue(b, i))
			}
		}
	}
	if st.checkRead(key0, append([]string{liveValue(0, 0)}, live0...)) == "" {
		t.Error("a deleted value went unnoticed")
	}
	// A row of the batch in flight may or may not be there yet.
	key3 := liveKey(1, 3, 0)
	var live3 []string
	for b := 1; b < 3; b++ {
		for i := 0; i < batchRows; i++ {
			if liveKey(1, b, i) == key3 {
				live3 = append(live3, liveValue(b, i))
			}
		}
	}
	if why := st.checkRead(key3, append([]string{liveValue(3, 0)}, live3...)); why != "" {
		t.Errorf("a row of the batch in flight failed the read: %s", why)
	}
}

func TestParseExposition(t *testing.T) {
	got, err := parseExposition(strings.NewReader(`# HELP x y
# TYPE toorjah_cache_hits_total counter
toorjah_cache_hits_total{relation="conf"} 5
toorjah_cache_hits_total{relation="pub"} 2
toorjah_query_duration_seconds_bucket{executor="pipelined",le="0.001"} 9
toorjah_query_duration_seconds_count{executor="pipelined"} 9
toorjah_goroutines 12
`))
	if err != nil {
		t.Fatal(err)
	}
	if got["toorjah_cache_hits_total"] != 7 || got["toorjah_goroutines"] != 12 ||
		got["toorjah_query_duration_seconds_count"] != 9 {
		t.Errorf("parsed %v", got)
	}
	if _, ok := got["toorjah_query_duration_seconds_bucket"]; ok {
		t.Error("bucket series must be skipped")
	}
}

// The paper's numbers at seed 1 (Fig. 6; the repo's BenchmarkAblation_Full
// invariant): the optimized plan answers q2 in 42845 accesses, the naive
// algorithm in 125965, with the same answers.
func TestPaperQ2AccessesAtSeedOne(t *testing.T) {
	sys, err := publicationSystem(1, q2Tuples)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Prepare(gen.PublicationQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	opt, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	naive, err := q.Execute(context.Background(), toorjah.WithExecutor(toorjah.ExecutorNaive))
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalAccesses() != 42845 || naive.TotalAccesses() != 125965 {
		t.Errorf("q2 accesses: optimized %d, naive %d; want 42845 and 125965", opt.TotalAccesses(), naive.TotalAccesses())
	}
	if digestResult(opt) != digestResult(naive) {
		t.Error("optimized and naive answers differ")
	}
}

// Every workload, untraced and traced, at about 1% size: no operation may
// fail, every declared metric must be reported, and the access counts that
// define the workloads (0 hot, 1 cold, 0 scan) must hold.
func TestQuickPassOfEveryWorkload(t *testing.T) {
	wantAccesses := map[string]float64{"serve-hot": 0, "serve-cold": 1, "serve-scan": 0}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: 0.4, trace: traced, quick: true, outDir: t.TempDir()}
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %s", w.name, traced, res.failed, res.attempted, res.failure)
			}
			if !traced {
				for _, d := range endToEnd {
					if !(res.metrics[d.Name] > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, res.metrics[d.Name])
					}
				}
				continue
			}
			if want, ok := wantAccesses[w.name]; ok && res.metrics["accesses_per_query"] != want {
				t.Errorf("%s: %v accesses per query, want %v", w.name, res.metrics["accesses_per_query"], want)
			}
			if w.name == "serve-hot" || w.name == "serve-scan" {
				if f := res.metrics["trace.self_sum_frac"]; math.Abs(f-1) > 0.1 {
					t.Errorf("%s: per-layer self times sum to %.3f of the client spans, want within 10%%", w.name, f)
				}
				if res.metrics["service.handler_us_p50"] <= 0 || res.metrics["exec.self_us_per_query"] <= 0 {
					t.Errorf("%s: handler/executor spans missing from the trace", w.name)
				}
			}
			if w.name == "serve-cold" && res.metrics["remote.peer_handler_us_p50"] <= 0 {
				t.Error("serve-cold: the peer's /probe handler spans are missing")
			}
			if w.name == "ingest-rw" && (res.metrics["recover_s"] <= 0 || res.metrics["ingest_p50_ms"] <= 0) {
				t.Error("ingest-rw: recovery or ingest latency missing")
			}
			raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var file struct {
				Ops []opTrace `json:"ops"`
			}
			if err := json.Unmarshal(raw, &file); err != nil || len(file.Ops) == 0 {
				t.Errorf("%s: trace file has %d operations (%v)", w.name, len(file.Ops), err)
			}
		}
	}
}

// BENCHMARK.json at the repo root and the lists in metrics.go and main.go
// must name the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, code has %q (or their reasons differ)", i, decl.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.name, len(w.why))
		}
	}
	same := func(kind string, declared []metric, code []metricDef, bounded bool) {
		if len(declared) != len(code) {
			t.Fatalf("%s: %d declared, %d in code", kind, len(declared), len(code))
		}
		for i, d := range code {
			if declared[i].Name != d.Name || declared[i].Unit != d.Unit {
				t.Errorf("%s %d: declared %s [%s], code has %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.Name, d.Unit)
			}
			if bounded != (declared[i].Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, d.Name, declared[i].Bound != nil, bounded)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
}
