// Webcrawl demonstrates the streaming ("distillation") engine of Section V
// on a simulated web-integration scenario: online shops reachable only
// through search forms, with answers presented to the user the moment they
// are derived — long before the full extraction completes.
//
// The scenario: find prices of products whose reviews mention a given
// keyword. Sources:
//
//	catalog^oo(Product, Brand)          — a crawlable product catalog
//	shop^ioo(Product, Price, Seller)    — a shop form: product name required
//	reviews^iooo(Product, Reviewer, Score, Keyword) — review search: product required
//	similar^io(Product, Product)        — "customers also bought": product required
//
// Each source answers with a simulated network latency, so time-to-first-
// answer is visibly smaller than total time.
//
// Run with: go run ./examples/webcrawl
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"toorjah"
)

func main() {
	sch, err := toorjah.ParseSchema(`
catalog^oo(Product, Brand)
shop^ioo(Product, Price, Seller)
reviews^iooo(Product, Reviewer, Score, Keyword)
similar^ii(Product, Product)
`)
	if err != nil {
		log.Fatal(err)
	}
	sys := toorjah.NewSystem(sch, toorjah.WithLatency(3*time.Millisecond)) // every form submission costs a round trip

	products := []string{"laptop", "phone", "tablet", "camera", "drone", "watch", "printer", "monitor"}
	var catalog, shop, reviews, similar []toorjah.Row
	for i, p := range products {
		catalog = append(catalog, toorjah.Row{p, fmt.Sprintf("brand%d", i%3)})
		shop = append(shop, toorjah.Row{p, fmt.Sprintf("%d", 100+37*i), fmt.Sprintf("seller%d", i%4)})
		kw := "great"
		if i%2 == 0 {
			kw = "noisy"
		}
		reviews = append(reviews, toorjah.Row{p, fmt.Sprintf("user%d", i), fmt.Sprintf("%d", 1+i%5), kw})
		similar = append(similar, toorjah.Row{p, products[(i+1)%len(products)]})
	}
	must(sys.BindRows("catalog", catalog...))
	must(sys.BindRows("shop", shop...))
	must(sys.BindRows("reviews", reviews...))
	must(sys.BindRows("similar", similar...))

	q, err := sys.Prepare("q(P, Price) :- shop(P, Price, S), reviews(P, R, Sc, great)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query: prices of products whose reviews say 'great'")
	fmt.Println("relevant sources:", strings.Join(q.RelevantRelations(), ", "))
	fmt.Println("('similar' requires both products bound: pruned as irrelevant)")
	fmt.Println()

	start := time.Now()
	res, err := q.Execute(context.Background(),
		toorjah.OnAnswer(func(t toorjah.Tuple) {
			v := t.Strings()
			fmt.Printf("  %-8s costs %-5s   (streamed after %s)\n",
				v[0], v[1], time.Since(start).Round(time.Millisecond))
		}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("%d answers; first after %s, all after %s; %d form submissions\n",
		res.Answers.Len(),
		res.TimeToFirst.Round(time.Millisecond),
		res.Elapsed.Round(time.Millisecond),
		res.TotalAccesses())
	fmt.Println("the user could have stopped reading after the first page —")
	fmt.Println("Toorjah presents answers as they arrive (paper Section V).")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
