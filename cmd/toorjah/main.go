// Command toorjah answers conjunctive queries over access-limited sources
// with an optimized, ⊂-minimal query plan, streaming answers as they are
// found (the system of Calì & Martinenghi, ICDE 2008).
//
//	toorjah -schema schema.txt -data datadir -query "q(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)"
//
// The schema file uses the paper's notation, one relation per line
// ("rev^ooi(Person, ConfName, Year)"); datadir holds one CSV file per
// relation (rev.csv, …). A -query with several non-comment lines is a union
// of conjunctive queries (UCQ), one disjunct per line sharing the head
// predicate and arity; the disjuncts execute concurrently and the distinct
// union answers stream as they are derived.
//
// Relations need not be local: -remote attaches a running toorjahd node as
// a federation peer, sourcing the named relations (or, with a bare
// address, every shared relation no local CSV provides data for) over the
// batched HTTP probe protocol, so one query can join local CSVs with
// relations served by other machines.
// Flags:
//
//	-plan            print the optimized plan (ordering + Datalog program)
//	                 and exit (for a UCQ: one plan per disjunct)
//	-dot             print the d-graph in DOT format and exit (single CQ only):
//	                 the view of the paper's Figs. 2 and 7–9 for any schema
//	                 and query (`experiments -fig 2|4|7|8|9` draws those)
//	-naive           run the naive algorithm instead of the optimized plan
//	-stats           print per-relation access statistics after the answers
//	-latency         simulated per-access latency (e.g. 50ms)
//	-max-batch       access bindings per source round trip (0 = default 16,
//	                 negative = unbatched)
//	-remote          attach a federation peer, host[:port][=R1,R2] (repeatable)
//	-remote-timeout  per-probe-attempt timeout against peers (default 10s)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"toorjah"
	"toorjah/internal/cq"
	"toorjah/internal/schema"
	"toorjah/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "toorjah:", err)
		os.Exit(1)
	}
}

// errUsage marks a bad invocation (usage already printed).
var errUsage = errors.New("usage")

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// run is the whole CLI, factored out of main so the tests can drive the
// binary end to end without spawning a process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("toorjah", flag.ContinueOnError)
	schemaFile := fs.String("schema", "", "schema file (required)")
	dataDir := fs.String("data", "", "directory of per-relation CSV files (required)")
	queryText := fs.String("query", "", "conjunctive query, or a UCQ with one disjunct per line (required)")
	showPlan := fs.Bool("plan", false, "print the optimized plan and exit")
	showDOT := fs.Bool("dot", false, "print the d-graph in DOT format and exit")
	naive := fs.Bool("naive", false, "use the naive strategy of Fig. 1")
	showStats := fs.Bool("stats", true, "print access statistics")
	latency := fs.Duration("latency", 0, "simulated per-access latency")
	maxBatch := fs.Int("max-batch", 0, "access bindings per source round trip (0 = default 16, negative = unbatched)")
	var remotes multiFlag
	fs.Var(&remotes, "remote", "federation peer to attach, host[:port][=R1,R2] (repeatable)")
	remoteTimeout := fs.Duration("remote-timeout", 0, "per-probe-attempt timeout against federation peers (0 = default 10s)")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}

	if *schemaFile == "" || *queryText == "" ||
		(*dataDir == "" && len(remotes) == 0 && !*showPlan && !*showDOT) {
		fs.Usage()
		return errUsage
	}
	raw, err := os.ReadFile(*schemaFile)
	if err != nil {
		return err
	}
	sch, err := schema.Parse(string(raw))
	if err != nil {
		return err
	}

	sys := toorjah.NewSystem(sch,
		toorjah.WithLatency(*latency),
		toorjah.WithMaxBatch(*maxBatch),
		toorjah.WithRemoteOptions(toorjah.RemoteOptions{Timeout: *remoteTimeout}))
	if *dataDir != "" {
		db, err := service.LoadDatabase(sch, *dataDir)
		if err != nil {
			return err
		}
		if err := sys.BindDatabase(db); err != nil {
			return err
		}
	}
	for _, spec := range remotes {
		if err := sys.AttachRemote(context.Background(), spec); err != nil {
			return err
		}
	}

	// A CQ runs as a union of one disjunct; only its messages, its -plan
	// lines and -dot are its own.
	union := cq.IsUnion(*queryText)
	if union && *showDOT {
		return errors.New("-dot renders a single CQ's d-graph; pass one disjunct at a time")
	}
	var (
		q         query
		disjuncts []*toorjah.Query
	)
	if union {
		u, err := sys.PrepareUCQ(*queryText)
		if err != nil {
			return err
		}
		q, disjuncts = u, u.Disjuncts()
	} else {
		one, err := sys.Prepare(*queryText)
		if err != nil {
			return err
		}
		if !one.Answerable() {
			fmt.Fprintln(stdout, "query is not answerable: some relation in it is not queryable; the answer is empty on every instance")
			return nil
		}
		q, disjuncts = one, []*toorjah.Query{one}
	}
	if *showDOT {
		fmt.Fprint(stdout, disjuncts[0].DGraphDOT())
		return nil
	}
	if *showPlan {
		for i, d := range disjuncts {
			if union {
				fmt.Fprintf(stdout, "-- disjunct %d --\n", i+1)
				if !d.Answerable() {
					fmt.Fprintln(stdout, "not answerable: the answer is empty on every instance")
					continue
				}
			}
			fmt.Fprintf(stdout, "relevant relations:   %s\n", strings.Join(d.RelevantRelations(), ", "))
			if !union {
				fmt.Fprintf(stdout, "irrelevant relations: %s\n", strings.Join(d.IrrelevantRelations(), ", "))
				if d.ForAllMinimal() {
					fmt.Fprintln(stdout, "the ordering is unique: this plan is ∀-minimal")
				}
			}
			fmt.Fprintln(stdout, d.Plan())
		}
		return nil
	}
	if !q.Answerable() {
		fmt.Fprintln(stdout, "no disjunct is answerable; the answer is empty on every instance")
		return nil
	}

	ctx := context.Background()
	start := time.Now()
	var res *toorjah.Result
	if *naive {
		res, err = q.Execute(ctx, toorjah.WithExecutor(toorjah.ExecutorNaive))
		if err != nil {
			return err
		}
		for _, t := range res.Answers.Tuples() {
			fmt.Fprintln(stdout, strings.Join(t.Strings(), ", "))
		}
	} else {
		// Stream answers as they are derived (the Toorjah way).
		res, err = q.Execute(ctx, toorjah.OnAnswer(func(t toorjah.Tuple) {
			fmt.Fprintf(stdout, "%s    (after %s)\n", strings.Join(t.Strings(), ", "), time.Since(start).Round(time.Millisecond))
		}))
		if err != nil {
			return err
		}
	}
	if union {
		fmt.Fprintf(stdout, "-- union of %d disjunct(s)\n", len(disjuncts))
	}
	fmt.Fprintf(stdout, "-- %d answer(s) in %s\n", res.Answers.Len(), res.Elapsed.Round(time.Millisecond))
	if !*showStats {
		return nil
	}
	fmt.Fprintf(stdout, "-- %d access(es) in %d round trip(s), %d tuple(s) extracted\n",
		res.TotalAccesses(), res.TotalBatches(), res.TotalTuples())
	for _, rel := range sch.Relations() {
		if st, ok := res.Stats[rel.Name]; ok {
			fmt.Fprintf(stdout, "--   %-12s %6d accesses  %6d round trips  %6d rows\n",
				rel.Name, st.Accesses, st.Batches, st.Tuples)
		}
	}
	return nil
}

// query is a prepared CQ or UCQ: the UCQ's disjuncts execute concurrently
// over one registry and the distinct union answers stream as the first
// disjunct derives them.
type query interface {
	Answerable() bool
	Execute(ctx context.Context, options ...toorjah.ExecOption) (*toorjah.Result, error)
}
