// Command bench is the repo's benchmark: five workloads measured from
// outside — over HTTP, through the façade, and by timing calls into each
// layer's public functions — with every answer checked against ground
// truth. BENCHMARK.json at the repo root names the command, the workloads
// and the metrics; README.md in this directory explains them.
//
// One invocation runs one workload in one process, so the resident-set
// high-water mark and the process-wide symbol table are that workload's:
//
//	bench --workload serve-hot --seed 1 --seconds 16 --trace 0
//
// prints every end-to-end metric (with --trace 1: every per-layer metric,
// and writes the spans of the traced phase to out/trace-<workload>.json)
// and ends with one JSON line. Without --workload it runs all five, untraced
// then traced, each in a child process of its own.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
)

var workloads = []workload{
	{
		name:  "paper-q2",
		why:   "the paper's Fig. 6 query on the library path: exec, datalog, storage probes and sym do all the work; service, remote, cache and wal do none",
		setup: setupPaperQ2,
	},
	{
		name:  "serve-hot",
		why:   "512 hot point queries that fit the plan cache (1024) and access cache (65536): HTTP, handler, executor set-up, cache hit and NDJSON encode are the whole cost",
		setup: setupServeHot,
	},
	{
		name:  "serve-cold",
		why:   "a permutation walk over 150000 keys, larger than both caches: every query pays parse, planning, cache miss/put/evict, a remote round trip and the peer's index probe",
		setup: setupServeCold,
	},
	{
		name:  "serve-scan",
		why:   "one cached 2-atom join with 512 answers per request: the pipelined executor loop, batched cache hits and per-answer encode+flush dominate; the only workload where streaming matters",
		setup: setupServeScan,
	},
	{
		name:  "ingest-rw",
		why:   "logged writes beside reads on one relation (WAL without fsync): sym interning, copy-on-write publish and compaction, WAL append, epoch-keyed cache invalidation on every read, then recovery",
		setup: setupIngestRW,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg runConfig
	var name string
	var trace int
	flag.StringVar(&name, "workload", "", "run this workload in this process (default: all five, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and key order")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "how long the timed phase measures")
	flag.IntVar(&trace, "trace", 0, "1 = the traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "about 1% sizes and bounded operation counts (what the tests run)")
	flag.StringVar(&cfg.outDir, "outdir", "bench/out", "where the traced run writes trace-<workload>.json")
	var runs int
	var baseline string
	flag.IntVar(&runs, "runs", 1, "without --workload: untraced runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&baseline, "baseline", "", "without --workload: write every run and its quartiles to this JSON file")
	flag.Parse()
	cfg.trace = trace != 0
	slog.SetDefault(quietLogger)

	if name == "" {
		os.Exit(runAll(cfg, runs, baseline))
	}
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		os.Exit(2)
	}
	res, err := runWorkload(context.Background(), w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		os.Exit(1)
	}
	printHeader(w, cfg)
	line := report(os.Stdout, res, cfg.trace)
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if !line.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %s\n", name, res.failed, res.attempted, res.failure)
		os.Exit(1)
	}
}

// printHeader records what the numbers were measured on.
func printHeader(w workload, cfg runConfig) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# workload %s: %s\n", w.name, w.why)
	fmt.Printf("# commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %gs, 1 closed-loop client, fsync=%s (ingest-rw only)\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.seconds, fsyncPolicy)
}

// report prints the run's metrics by name and unit and returns the result
// line: the end-to-end list for an untraced run, the per-layer list for a
// traced one.
func report(out *os.File, res *result, traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, n := range res.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	for _, d := range defs {
		v := res.metrics[d.Name]
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "%-36s %s %s\n", d.Name, strconv.FormatFloat(v, 'f', -1, 64), d.Unit)
	}
	return line
}
