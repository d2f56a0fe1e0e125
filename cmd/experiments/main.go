// Command experiments regenerates the figures of Calì & Martinenghi, ICDE
// 2008: the d-graphs of Sections III–V and every table of the experimental
// evaluation (Section V).
//
//	experiments -fig 2      d-graph of the running example, in Graphviz DOT
//	experiments -fig 4      optimized d-graph of the running example
//	experiments -fig 7|8|9  d-graphs of q1/q2/q3, GFP marks drawn
//	experiments -fig 6      per-relation accesses and rows, naive vs
//	                        optimized, for q1–q3 over the publication schema
//	experiments -fig 10     aggregate arc/savings statistics over random
//	                        schemata and queries
//	experiments -fig 11     average execution times by query size, naive vs
//	                        optimized, with simulated per-access latency
//	experiments -fig all    the three tables, 6, 10 and 11
//
// Pipe a d-graph to `dot -Tpdf` to render it; `toorjah -dot` draws the
// d-graph of any schema and query.
//
// Absolute numbers differ from the paper (different generator seeds and an
// in-memory store instead of PostgreSQL); the shapes — which relations are
// pruned, who wins and by what factor — are the reproduction target.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"toorjah/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// errUsage marks a bad invocation (usage already printed).
var errUsage = errors.New("usage")

// run is the whole CLI, factored out of main so the tests can drive the
// binary end to end without spawning a process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 2, 4, 6, 7, 8, 9, 10, 11 or all")
	seed := fs.Int64("seed", 1, "workload seed")
	schemas := fs.Int("schemas", 12, "random schemata for figs 10/11")
	queries := fs.Int("queries", 25, "random queries per schema for figs 10/11")
	tuples := fs.Int("tuples", 1000, "tuples per relation for fig 6")
	latencyUS := fs.Int("latency-us", 200, "simulated per-access latency in µs for fig 11")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	ctx := context.Background()

	// The old main dropped the figure errors on the floor; propagate them,
	// so a generation failure exits non-zero instead of truncating output.
	switch *fig {
	case "2", "4", "7", "8", "9":
		n, _ := strconv.Atoi(*fig)
		return experiments.DGraphFig(stdout, n)
	case "6":
		return experiments.Fig6(ctx, stdout, *seed, *tuples)
	case "10":
		return experiments.Fig10(ctx, stdout, *seed, *schemas, *queries)
	case "11":
		return experiments.Fig11(ctx, stdout, *seed, *schemas, *queries, *latencyUS)
	case "all":
		if err := experiments.Fig6(ctx, stdout, *seed, *tuples); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if err := experiments.Fig10(ctx, stdout, *seed, *schemas, *queries); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		return experiments.Fig11(ctx, stdout, *seed, *schemas, *queries, *latencyUS)
	default:
		return fmt.Errorf("unknown figure %q (want 2, 4, 6, 7, 8, 9, 10, 11 or all)", *fig)
	}
}
