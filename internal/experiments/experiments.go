// Package experiments implements the reproduction of the paper's figures:
// the d-graphs of Figs. 2, 4, 7, 8 and 9 (Sections III–V), and the
// experimental evaluation of Section V: Fig. 6 (per-relation accesses and
// extracted rows for q1–q3 over the publication schema, naive vs
// optimized), Fig. 10 (aggregate d-graph and savings statistics over random
// workloads) and Fig. 11 (average execution time by query size under a
// simulated per-access latency). The cmd/experiments binary and the
// module's benchmarks are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"toorjah/internal/core"
	"toorjah/internal/cq"
	"toorjah/internal/dgraph"
	"toorjah/internal/exec"
	"toorjah/internal/gen"
	"toorjah/internal/plan"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/stats"
)

// The running example of Section III, drawn in Figs. 2 and 4.
const (
	exampleSchema = `
r1^io(A, B)
r2^io(B, C)
r3^io(C, A)
`
	exampleQuery = "q(C) :- r1(a, B), r2(B, C)"
)

// DGraphFig renders one of the paper's d-graph figures in Graphviz DOT
// format, after "// query:", "// relevant:" and "// irrelevant:" header
// lines: Fig. 2 is the d-graph of the running example, Fig. 4 its optimized
// d-graph, and Figs. 7, 8 and 9 the d-graphs of q1, q2 and q3 over the
// publication schema, strong and deleted arcs marked.
func DGraphFig(w io.Writer, fig int) error {
	schText, qText := exampleSchema, exampleQuery
	switch fig {
	case 2, 4:
	case 7, 8, 9:
		schText, qText = gen.PublicationSchemaText, gen.PublicationQueries[fig-7]
	default:
		return fmt.Errorf("no d-graph figure %d (want 2, 4, 7, 8 or 9)", fig)
	}
	p, err := core.Prepare(schema.MustParse(schText), cq.MustParse(qText))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "// query: %s\n// relevant: %v\n// irrelevant: %v\n",
		qText, p.Opt.RelevantRelations(), p.Opt.IrrelevantRelations())
	if fig == 4 {
		fmt.Fprint(w, dgraph.DOTOptimized(p.Opt, nil))
	} else {
		fmt.Fprint(w, dgraph.DOT(p.Graph, p.Opt.Solution, nil))
	}
	return nil
}

// Fig6Row is one relation's measurements for one query.
type Fig6Row struct {
	Relation                   string
	NaiveAccesses, OptAccesses int
	NaiveRows, OptRows         int
	// Relevant is false when the optimization excluded the relation; the
	// Opt columns are then meaningless (the paper leaves them blank).
	Relevant bool
}

// Fig6Result is the outcome of one query of the first test series.
type Fig6Result struct {
	Query   string
	Rows    []Fig6Row
	Answers int
	// AnswersAgree records that naive and optimized returned identical
	// answer sets (a hard invariant, checked on every run).
	AnswersAgree bool
}

// RunFig6 executes q1–q3 of the paper over a synthetic publication
// instance and returns per-relation accounting.
func RunFig6(ctx context.Context, seed int64, tuples int) ([]Fig6Result, error) {
	cfg := gen.DefaultPublication()
	cfg.Tuples = tuples
	sch, db := gen.Publication(seed, cfg)
	reg, err := source.FromDatabase(sch, db, 0)
	if err != nil {
		return nil, err
	}
	var out []Fig6Result
	for _, qs := range gen.PublicationQueries {
		q, err := cq.Parse(qs)
		if err != nil {
			return nil, err
		}
		p, err := core.Prepare(sch, q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", qs, err)
		}
		naive, err := exec.Naive(ctx, sch, reg, p.Query, p.Typing, exec.Options{}, nil)
		if err != nil {
			return nil, err
		}
		fast, err := exec.FastFailing(ctx, p.Plan, reg, exec.Options{}, nil)
		if err != nil {
			return nil, err
		}
		relevant := make(map[string]bool)
		for _, name := range p.Opt.RelevantRelations() {
			relevant[name] = true
		}
		res := Fig6Result{
			Query:        qs,
			Answers:      fast.Answers.Len(),
			AnswersAgree: sameAnswers(naive, fast),
		}
		for _, rel := range sch.Relations() {
			row := Fig6Row{
				Relation:      rel.Name,
				NaiveAccesses: naive.Stats[rel.Name].Accesses,
				NaiveRows:     naive.Stats[rel.Name].Tuples,
				OptAccesses:   fast.Stats[rel.Name].Accesses,
				OptRows:       fast.Stats[rel.Name].Tuples,
				Relevant:      relevant[rel.Name],
			}
			res.Rows = append(res.Rows, row)
		}
		out = append(out, res)
	}
	return out, nil
}

func sameAnswers(a, b *exec.Result) bool {
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

// Fig6 renders the first test series as the paper's table layout.
func Fig6(ctx context.Context, w io.Writer, seed int64, tuples int) error {
	results, err := RunFig6(ctx, seed, tuples)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 6 — publication schema, %d tuples/relation, seed %d\n", tuples, seed)
	for _, res := range results {
		fmt.Fprintf(w, "\n%s   (answers: %d, naive==optimized: %v)\n", res.Query, res.Answers, res.AnswersAgree)
		var tb stats.Table
		tb.Header("relation", "naive acc.", "opt. acc.", "naive rows", "opt. rows")
		for _, r := range res.Rows {
			opta, optr := "", ""
			if r.Relevant {
				opta, optr = fmt.Sprint(r.OptAccesses), fmt.Sprint(r.OptRows)
			}
			tb.Row(r.Relation, fmt.Sprint(r.NaiveAccesses), opta, fmt.Sprint(r.NaiveRows), optr)
		}
		fmt.Fprint(w, tb.String())
	}
	return nil
}

// Fig10Stats aggregates the random-workload experiment.
type Fig10Stats struct {
	Queries                    int
	Arcs, Deleted, Strong      stats.Series
	Saved                      stats.Series // fraction of naive accesses avoided
	NaiveAccesses, OptAccesses stats.Series
	// NonConnection counts queries outside the connection-query class of
	// the earlier relevance literature; the paper reports ~70% of its
	// synthetic queries are not connection queries (Section VI).
	NonConnection int
	// Orderable counts queries executable without recursion by some atom
	// ordering; the rest are the queries that genuinely need the paper's
	// recursive plans.
	Orderable int
}

// randomRun is one answerable query of the random workload, prepared and
// run by both executors.
type randomRun struct {
	sch         *schema.Schema
	q           *cq.CQ
	p           *core.Pipeline
	naive, fast *exec.Result
}

// walkRandom generates nSchemas random schemata with nQueries queries each
// (the published parameter ranges in cfg), prepares every query with opts,
// runs each answerable one naive and fast-fail on a random instance of its
// schema, checks that the two answer sets agree, and hands the run to visit.
func walkRandom(ctx context.Context, seed int64, nSchemas, nQueries int, cfg gen.Config, opts core.Options, visit func(randomRun)) error {
	for si := 0; si < nSchemas; si++ {
		g := gen.New(seed+int64(si)*1000, cfg)
		sch := g.Schema()
		reg, err := source.FromDatabase(sch, g.Instance(sch), 0)
		if err != nil {
			return err
		}
		for qi := 0; qi < nQueries; qi++ {
			q, ok := g.Query(sch, fmt.Sprintf("q%d", qi))
			if !ok {
				continue
			}
			p, err := core.PrepareOpts(sch, q, opts)
			if err != nil || !p.Answerable() {
				continue
			}
			naive, err := exec.Naive(ctx, sch, reg, p.Query, p.Typing, exec.Options{}, nil)
			if err != nil {
				return err
			}
			fast, err := exec.FastFailing(ctx, p.Plan, reg, exec.Options{}, nil)
			if err != nil {
				return err
			}
			if !sameAnswers(naive, fast) {
				return fmt.Errorf("schema %d query %q: naive and optimized disagree", si, q)
			}
			visit(randomRun{sch: sch, q: q, p: p, naive: naive, fast: fast})
		}
	}
	return nil
}

// RunFig10 measures, over the random workload of walkRandom, the d-graph
// statistics and the access savings of the optimized plan.
func RunFig10(ctx context.Context, seed int64, nSchemas, nQueries int, cfg gen.Config) (*Fig10Stats, error) {
	out := &Fig10Stats{}
	err := walkRandom(ctx, seed, nSchemas, nQueries, cfg, core.Options{}, func(r randomRun) {
		out.Queries++
		nStrong, nDeleted := r.p.Opt.Solution.Counts()
		out.Arcs.Add(float64(len(r.p.Graph.Arcs)))
		out.Deleted.Add(float64(nDeleted))
		out.Strong.Add(float64(nStrong))
		if !cq.IsConnectionQuery(r.q, r.sch) {
			out.NonConnection++
		}
		if _, ok := plan.Orderable(r.q, r.sch); ok {
			out.Orderable++
		}
		na, oa := r.naive.TotalAccesses(), r.fast.TotalAccesses()
		out.NaiveAccesses.Add(float64(na))
		out.OptAccesses.Add(float64(oa))
		if na > 0 {
			out.Saved.Add(1 - float64(oa)/float64(na))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig10 renders the aggregate table in the paper's layout.
func Fig10(ctx context.Context, w io.Writer, seed int64, nSchemas, nQueries int) error {
	st, err := RunFig10(ctx, seed, nSchemas, nQueries, gen.Fig10())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 10 — %d random queries over %d schemata (seed %d)\n",
		st.Queries, nSchemas, seed)
	var tb stats.Table
	tb.Header("", "arcs", "deleted arcs", "strong arcs", "saved accesses")
	tb.Row("min",
		fmt.Sprintf("%.0f", st.Arcs.Min()),
		fmt.Sprintf("%.0f", st.Deleted.Min()),
		fmt.Sprintf("%.0f", st.Strong.Min()),
		stats.Pct(st.Saved.Min()))
	tb.Row("max",
		fmt.Sprintf("%.0f", st.Arcs.Max()),
		fmt.Sprintf("%.0f", st.Deleted.Max()),
		fmt.Sprintf("%.0f", st.Strong.Max()),
		stats.Pct(st.Saved.Max()))
	tb.Row("avg",
		fmt.Sprintf("%.2f", st.Arcs.Avg()),
		fmt.Sprintf("%.2f", st.Deleted.Avg()),
		fmt.Sprintf("%.2f", st.Strong.Avg()),
		stats.Pct(st.Saved.Avg()))
	fmt.Fprint(w, tb.String())
	fmt.Fprintf(w, "accesses: naive avg %.1f, optimized avg %.1f\n",
		st.NaiveAccesses.Avg(), st.OptAccesses.Avg())
	fmt.Fprintf(w, "not connection queries: %s (paper: ~70%%); need recursion (not orderable): %s\n",
		stats.Pct(float64(st.NonConnection)/float64(st.Queries)),
		stats.Pct(1-float64(st.Orderable)/float64(st.Queries)))
	return nil
}

// Fig11Bucket is the measurement for one query size.
type Fig11Bucket struct {
	Atoms              int
	Queries            int
	NaiveTime, OptTime time.Duration
}

// RunFig11 reproduces the execution-time experiment: the random workload of
// walkRandom (queries not minimized), grouped by atom count, timed naive vs
// optimized, with a simulated per-access latency. The time of a run is its measured in-memory wall time plus
// accesses × latency — the sequential remote-source model of the paper,
// where per-access cost dominates.
func RunFig11(ctx context.Context, seed int64, nSchemas, nQueries int, latency time.Duration, cfg gen.Config) ([]Fig11Bucket, error) {
	type acc struct {
		n          int
		naive, opt time.Duration
	}
	buckets := make(map[int]*acc)
	err := walkRandom(ctx, seed, nSchemas, nQueries, cfg, core.Options{SkipMinimize: true}, func(r randomRun) {
		b := buckets[len(r.q.Body)]
		if b == nil {
			b = &acc{}
			buckets[len(r.q.Body)] = b
		}
		b.n++
		b.naive += r.naive.Elapsed + time.Duration(r.naive.TotalAccesses())*latency
		b.opt += r.fast.Elapsed + time.Duration(r.fast.TotalAccesses())*latency
	})
	if err != nil {
		return nil, err
	}
	var out []Fig11Bucket
	for atoms := cfg.MinAtoms; atoms <= cfg.MaxAtoms; atoms++ {
		b := buckets[atoms]
		if b == nil || b.n == 0 {
			continue
		}
		out = append(out, Fig11Bucket{
			Atoms:     atoms,
			Queries:   b.n,
			NaiveTime: b.naive / time.Duration(b.n),
			OptTime:   b.opt / time.Duration(b.n),
		})
	}
	return out, nil
}

// Fig11 renders the execution-time table in the paper's layout.
func Fig11(ctx context.Context, w io.Writer, seed int64, nSchemas, nQueries, latencyUS int) error {
	latency := time.Duration(latencyUS) * time.Microsecond
	rows, err := RunFig11(ctx, seed, nSchemas, nQueries, latency, gen.Fig10())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 11 — average execution times, %v per access (seed %d)\n", latency, seed)
	var tb stats.Table
	tb.Header("atoms", "queries", "naive", "opt.", "speedup")
	for _, r := range rows {
		speedup := "-"
		if r.OptTime > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(r.NaiveTime)/float64(r.OptTime))
		}
		tb.Row(fmt.Sprint(r.Atoms), fmt.Sprint(r.Queries),
			r.NaiveTime.Round(time.Microsecond).String(),
			r.OptTime.Round(time.Microsecond).String(), speedup)
	}
	fmt.Fprint(w, tb.String())
	return nil
}
