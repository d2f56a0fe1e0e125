package core

import (
	"testing"

	"toorjah/internal/cq"
	"toorjah/internal/gen"
	"toorjah/internal/plan"
	"toorjah/internal/schema"
)

var benchPlan *plan.Plan

// BenchmarkRelinearize is what an adaptive system pays when the data behind
// a planned shape moves: the plan regenerated from the optimized d-graph of
// paper q3 against fresh relation sizes — ordering, program, link — with
// validation, minimization, the d-graph and GFP left as they were.
func BenchmarkRelinearize(b *testing.B) {
	sch := schema.MustParse(gen.PublicationSchemaText)
	shape, _ := cq.Shape(cq.MustParse(gen.PublicationQueries[2]))
	p, err := Prepare(sch, shape)
	if err != nil {
		b.Fatal(err)
	}
	sizes := map[string]int{"pub1": 300, "pub2": 300, "conf": 300, "rev": 300, "sub": 300, "rev_icde": 300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sizes["rev"] = 300 + i%7 // the counts move, as they do between epochs
		if benchPlan, err = plan.GenerateWith(p.Opt, plan.OrderOptions{Sizes: sizes}); err != nil {
			b.Fatal(err)
		}
	}
}
