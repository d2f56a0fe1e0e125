// Randomized sweeps random schemata, queries and instances (the workload of
// the paper's Figs. 10 and 11) and reports per-query access savings of the
// optimized plan over the naive strategy, asserting on every run that both
// return identical answers.
//
// Run with: go run ./examples/randomized [-schemas 4] [-queries 8] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"toorjah"
	"toorjah/internal/core"
	"toorjah/internal/exec"
	"toorjah/internal/gen"
	"toorjah/internal/source"
)

func main() {
	schemas := flag.Int("schemas", 4, "number of random schemata")
	queries := flag.Int("queries", 8, "queries per schema")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	cfg := gen.Fig10()
	totalNaive, totalOpt, ran := 0, 0, 0
	for si := 0; si < *schemas; si++ {
		g := gen.New(*seed+int64(si)*1000, cfg)
		sch := g.Schema()
		db := g.Instance(sch)
		reg, err := source.FromDatabase(sch, db, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("schema %d:\n%s\n", si+1, indent(sch.String()))
		for qi := 0; qi < *queries; qi++ {
			q, ok := g.Query(sch, fmt.Sprintf("q%d", qi))
			if !ok {
				continue
			}
			p, err := core.Prepare(sch, q)
			if err != nil || !p.Answerable() {
				continue
			}
			naive, err := exec.Naive(context.Background(), sch, reg, p.Query, p.Typing, exec.Options{}, nil)
			if err != nil {
				log.Fatal(err)
			}
			opt, err := exec.FastFailing(context.Background(), p.Plan, reg, exec.Options{}, nil)
			if err != nil {
				log.Fatal(err)
			}
			if !sameAnswers(naive, opt) {
				log.Fatalf("ANSWER MISMATCH on %s", q)
			}
			ran++
			na, oa := naive.TotalAccesses(), opt.TotalAccesses()
			totalNaive += na
			totalOpt += oa
			saved := 0.0
			if na > 0 {
				saved = 100 * (1 - float64(oa)/float64(na))
			}
			fmt.Printf("  %-64s naive %6d  opt %6d  saved %5.1f%%  answers %d\n",
				trim(q.String(), 64), na, oa, saved, opt.Answers.Len())
		}
	}
	fmt.Printf("\n%d queries: naive %d accesses, optimized %d (%.1f%% saved overall)\n",
		ran, totalNaive, totalOpt, 100*(1-float64(totalOpt)/float64(totalNaive)))
}

func sameAnswers(a, b *toorjah.Result) bool {
	sa, sb := a.AnswerSet(), b.AnswerSet()
	if len(sa) != len(sb) {
		return false
	}
	for k := range sa {
		if !sb[k] {
			return false
		}
	}
	return true
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
