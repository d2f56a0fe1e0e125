// Command dgraphviz renders the dependency graph and the optimized
// dependency graph of a query in Graphviz DOT format, reproducing the
// paper's Figs. 2, 4, 7, 8 and 9.
//
//	dgraphviz -fig 2           d-graph of the running example (Fig. 2)
//	dgraphviz -fig 4           optimized d-graph of the running example
//	dgraphviz -fig 7|8|9       d-graphs of q1/q2/q3, before and after pruning
//	dgraphviz -schema f -query "q(X) :- ..."   any schema and query
//
// Pipe the output to `dot -Tpdf` to render.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"toorjah/internal/core"
	"toorjah/internal/cq"
	"toorjah/internal/dgraph"
	"toorjah/internal/gen"
	"toorjah/internal/schema"
)

const exampleSchema = `
r1^io(A, B)
r2^io(B, C)
r3^io(C, A)
`

const exampleQuery = "q(C) :- r1(a, B), r2(B, C)"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "dgraphviz:", err)
		os.Exit(1)
	}
}

// errUsage marks a bad invocation (usage already printed).
var errUsage = errors.New("usage")

// run is the whole CLI, factored out of main so the tests can drive the
// binary end to end without spawning a process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dgraphviz", flag.ContinueOnError)
	fig := fs.String("fig", "", "paper figure to reproduce: 2, 4, 7, 8 or 9")
	schemaFile := fs.String("schema", "", "schema file (paper notation, one relation per line)")
	queryText := fs.String("query", "", "conjunctive query")
	optimized := fs.Bool("optimized", false, "render the optimized d-graph instead of the full one")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}

	var schText, qText string
	showOpt := *optimized
	switch *fig {
	case "2":
		schText, qText = exampleSchema, exampleQuery
	case "4":
		schText, qText, showOpt = exampleSchema, exampleQuery, true
	case "7", "8", "9":
		schText = gen.PublicationSchemaText
		qText = gen.PublicationQueries[int((*fig)[0]-'7')]
	case "":
		if *schemaFile == "" || *queryText == "" {
			fs.Usage()
			return errUsage
		}
		raw, err := os.ReadFile(*schemaFile)
		if err != nil {
			return err
		}
		schText, qText = string(raw), *queryText
	default:
		return fmt.Errorf("unknown figure %q (want 2, 4, 7, 8 or 9)", *fig)
	}

	sch, err := schema.Parse(schText)
	if err != nil {
		return err
	}
	q, err := cq.Parse(qText)
	if err != nil {
		return err
	}
	p, err := core.Prepare(sch, q)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "// query: %s\n// relevant: %v\n// irrelevant: %v\n",
		qText, p.Opt.RelevantRelations(), p.Opt.IrrelevantRelations())
	if showOpt {
		fmt.Fprint(stdout, dgraph.DOTOptimized(p.Opt, nil))
	} else {
		fmt.Fprint(stdout, dgraph.DOT(p.Graph, p.Opt.Solution, true, nil))
	}
	return nil
}
