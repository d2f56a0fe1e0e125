// Command loadgen is the production workload harness: it replays a
// configurable scenario mix — point CQs, fat UCQs, ingest storms, federated
// probes, injected peer outages — from N concurrent clients against an
// in-process two-node toorjahd cluster (the real internal/service handler
// on real loopback listeners), scores every scenario against its declared
// expected outcome, and reports client-side latency quantiles next to the
// servers' own /metrics deltas.
//
//	go run ./cmd/loadgen -scenarios smoke -duration 20s
//
// Suites are built in (smoke, mixed, adaptive, crash — see internal/load)
// or read from a JSON file:
//
//	{"name": "mine", "scenarios": [
//	  {"name": "point", "kind": "query", "weight": 4,
//	   "query": "q(C, Y) :- conf(p1, C, Y)",
//	   "expect": {"from_ground_truth": true}},
//	  {"name": "storm", "kind": "ingest", "weight": 1,
//	   "relation": "storm", "rows": 100}
//	]}
//
// Expected outcomes (exact answer count, answer-set hash, truncation cap,
// error budget, adaptive-no-worse) are declared per scenario; ground-truth
// expectations are computed before the clock starts by executing the query
// against a reference system holding every relation locally. The run exits
// 1 when any scenario fails its predicates.
//
// The -json snapshot is the report itself (load.Report) as one JSON object:
// per scenario the declaration, the measurement, the verdict and the latency
// quantiles, then the whole-run rollup and each node's /metrics deltas.
//
// -wal runs the query-serving node durable: every applied mutation batch
// reaches a write-ahead log under the given directory before its
// acknowledgement, measuring durable-write overhead under the same mix.
// The crash suite goes further — it re-execs this very binary as durable
// child processes, SIGKILLs them mid-storm (including mid-write, via a WAL
// failpoint), restarts them and scores crash-recovery equivalence against
// a never-crashed twin.
//
// Flags:
//
//	-scenarios  built-in suite name or path to a suite JSON file (default smoke)
//	-duration   timed-phase length (default 10s)
//	-clients    concurrent clients (default 8)
//	-seed       RNG seed for the scenario mix (default 1)
//	-latency    simulated per-access source latency on every node (default 0)
//	-adaptive   serve queries with live-size adaptive plan ordering
//	-wal        write-ahead-log directory for the query-serving node ("" = in-memory)
//	-fsync      WAL flush policy with -wal: always, interval or never (default never)
//	-json       write the report as JSON to this path
//	-md         write the GFM report to this path (CI: $GITHUB_STEP_SUMMARY)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"toorjah/internal/load"
)

func main() {
	// A crash-suite child re-execs this binary; the env switch turns the
	// process into the durable victim node and never returns.
	load.MaybeRunCrashChild()

	scenarios := flag.String("scenarios", "smoke", "built-in suite name or suite JSON file")
	duration := flag.Duration("duration", 10*time.Second, "timed-phase length")
	clients := flag.Int("clients", 8, "concurrent clients")
	seed := flag.Int64("seed", 1, "RNG seed for the scenario mix")
	latency := flag.Duration("latency", 0, "simulated per-access source latency on every node")
	adaptive := flag.Bool("adaptive", false, "serve queries with live-size adaptive plan ordering")
	walDir := flag.String("wal", "", "write-ahead-log directory for the query-serving node (\"\" = in-memory)")
	fsync := flag.String("fsync", "never", "WAL flush policy when -wal is set: always, interval or never")
	jsonOut := flag.String("json", "", "write the report as JSON to this path")
	mdOut := flag.String("md", "", "write the GFM report to this path")
	flag.Parse()

	suite, ok := load.BuiltinSuite(*scenarios)
	if !ok {
		f, err := os.Open(*scenarios)
		if err != nil {
			fatal(fmt.Errorf("-scenarios %q is neither a built-in suite %v nor a readable file: %w",
				*scenarios, load.BuiltinSuiteNames(), err))
		}
		suite, err = load.ParseSuite(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cluster, err := load.StartDefaultCluster(ctx, load.DefaultClusterOptions{
		Latency:  *latency,
		Adaptive: *adaptive,
		WALDir:   *walDir,
		Fsync:    *fsync,
	})
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()
	for _, n := range cluster.Nodes {
		fmt.Printf("loadgen: %s serving on %s\n", n.Name, n.URL)
	}

	report, err := load.Run(ctx, cluster, suite, load.Config{
		Clients:  *clients,
		Duration: *duration,
		Seed:     *seed,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Println()
	fmt.Print(report.Text())

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nloadgen: report written to %s\n", *jsonOut)
	}
	if *mdOut != "" {
		f, err := os.OpenFile(*mdOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		if _, err := f.WriteString(report.Markdown()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("loadgen: markdown report written to %s\n", *mdOut)
	}

	if !report.Pass() {
		fmt.Fprintln(os.Stderr, "loadgen: FAIL — one or more scenarios violated their expected outcome")
		os.Exit(1)
	}
	fmt.Println("loadgen: PASS")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
