// Liveingest demonstrates mutable versioned relations: a reviewer database
// that changes while queries run. Rows are inserted and deleted through the
// facade's live-data API (System.Insert / System.Delete) without rebinding
// sources or re-preparing queries, and a cross-query access cache stays
// exactly as fresh as the data — entries are keyed by each relation's
// epoch, so a mutation makes the stale extraction set unreachable at once
// while queries already in flight keep the consistent version they pinned.
//
// The scenario: conference reviewers are assigned (and withdraw) while a
// conflict-of-interest query runs repeatedly. Every answer set printed
// corresponds to one single epoch of the data, never a mix.
//
// Run with: go run ./examples/liveingest
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"toorjah"
)

func main() {
	sch, err := toorjah.ParseSchema(`
pub1^io(Paper, Person)
conf^ooo(Paper, ConfName, Year)
rev^ooi(Person, ConfName, Year)`)
	if err != nil {
		log.Fatal(err)
	}
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	sys.BindRows("pub1", toorjah.Row{"p1", "alice"}, toorjah.Row{"p2", "bob"})
	sys.BindRows("conf", toorjah.Row{"p1", "icde", "y2008"}, toorjah.Row{"p2", "icde", "y2008"})
	sys.BindRows("rev", toorjah.Row{"alice", "icde", "y2008"})

	q, err := sys.Prepare("q(R) :- pub1(P, R), conf(P, C, Y), rev(R, C, Y)")
	if err != nil {
		log.Fatal(err)
	}
	show := func(when string) {
		res, err := q.Execute(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s epoch(rev)=%d answers=[%s] accesses=%d\n",
			when, sys.RelationEpoch("rev"),
			strings.Join(res.SortedAnswers(), " "), res.TotalAccesses())
	}

	show("initially")
	show("again (cache-warm)") // zero accesses: every probe is cached

	// bob is assigned as a reviewer: one live batch, one epoch advance. The
	// warm plan sees the new row on its next execution — the cache entries
	// of the old epoch (including the cached "bob reviews nothing") no
	// longer serve.
	if _, err := sys.Insert("rev", toorjah.Row{"bob", "icde", "y2008"}); err != nil {
		log.Fatal(err)
	}
	show("after Insert(bob)")

	// alice withdraws; the same plan, the same cache, the new truth.
	if _, err := sys.Delete("rev", toorjah.Row{"alice", "icde", "y2008"}); err != nil {
		log.Fatal(err)
	}
	show("after Delete(alice)")

	// Bulk ingestion parses the same CSV dialect the loader uses.
	n, err := sys.LoadCSV("rev", strings.NewReader("carol,icde,y2008\ndave,icde,y2008\n"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LoadCSV added %d rows\n", n)
	show("after LoadCSV")

	fmt.Println()
	fmt.Println("data freshness (what toorjahd serves as the toorjah_relation_* gauges):")
	for name, info := range sys.DataInfo() {
		fmt.Printf("  %-5s epoch=%d rows=%d\n", name, info.Epoch, info.Rows)
	}
}
