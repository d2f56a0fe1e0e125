package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"toorjah"
	"toorjah/internal/oracle"
	"toorjah/internal/schema"
)

// TestOracleService is the service's driver of internal/oracle: every
// generated case asked over /query — as text, and with limit= when the case
// has one — of a node over its tables; of front nodes that hold a third of
// the relations and attach the rest from two toorjahd peers, unbatched and
// batched, uncached and over a cold and then a warm access cache; and of a
// node recovered from a WAL that logged the case's tables and mutation
// script. The uncached access count is one group across all of them:
// federated or local, batched or not.
func TestOracleService(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(900); seed < 900+seeds; seed++ {
		c := oracle.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sys := toorjah.NewSystem(c.Schema)
			if err := sys.BindDatabase(c.DB); err != nil {
				t.Fatal(err)
			}
			checkQueryEndpoint(t, c, sys, "/query", "uncached")
			checkFederated(t, c)
			checkRecovered(t, c)
		})
	}
}

// checkQueryEndpoint asks c over /query of a node serving sys, and again
// under the case's limit; run says whether sys's access cache is absent,
// cold or warm.
func checkQueryEndpoint(t *testing.T, c *oracle.Case, sys *toorjah.System, surface, run string) {
	srv := httptest.NewServer(New(sys, toorjah.Options{}).Handler())
	defer srv.Close()
	ask := func(limit int) oracle.Outcome {
		target := srv.URL + "/query?" + url.Values{"q": {c.Text()}, "limit": {strconv.Itoa(limit)}}.Encode()
		rows, done, err := readNDJSON(http.DefaultClient, target)
		if err != nil {
			t.Fatalf("%s: %v", surface, err)
		}
		o := oracle.Outcome{Truncated: done.Truncated, Limit: limit, Count: done.Accesses, Answers: []string{}}
		for _, row := range rows {
			o.Answers = append(o.Answers, oracle.Key(row))
		}
		o.Streamed = o.Answers
		return o
	}
	o := ask(0)
	if o.Warm = run == "warm"; run == "uncached" {
		o.Batching = "/query"
	}
	oracle.Check(t, c, surface+" "+run, o)
	if c.Limit > 0 {
		oracle.Check(t, c, surface+" "+run+" limited", ask(c.Limit))
	}
}

// checkFederated asks c of front nodes whose relations are split over
// themselves and two peers: every third relation local, the rest
// round-robin.
func checkFederated(t *testing.T, c *oracle.Case) {
	var shards [3][]*schema.Relation
	for i, rel := range c.Schema.Relations() {
		shards[i%3] = append(shards[i%3], rel)
	}
	var specs []string
	for _, shard := range shards[1:] {
		var names []string
		for _, rel := range shard {
			names = append(names, rel.Name)
		}
		if len(names) > 0 {
			specs = append(specs, startToorjahd(t, shard, subDatabase(t, c.DB, shard), nil)+"="+strings.Join(names, ","))
		}
	}
	for _, batch := range []int{-1, 0} {
		for _, cached := range []bool{false, true} {
			opts := []toorjah.SystemOption{toorjah.WithRemoteOptions(fastRemote()), toorjah.WithMaxBatch(batch)}
			if cached {
				opts = append(opts, toorjah.WithCache(toorjah.CacheOptions{}))
			}
			front := toorjah.NewSystem(c.Schema, opts...)
			if err := front.BindDatabase(subDatabase(t, c.DB, shards[0])); err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				if err := front.AttachRemote(context.Background(), spec); err != nil {
					t.Fatal(err)
				}
			}
			surface := fmt.Sprintf("federated /query batch=%d", batch)
			if !cached {
				checkQueryEndpoint(t, c, front, surface, "uncached")
				continue
			}
			for _, run := range []string{"cold", "warm"} {
				checkQueryEndpoint(t, c, front, surface, run)
			}
		}
	}
}

// checkRecovered logs c's tables and script through a WAL — a snapshot
// halfway — then asks /query of a node over what recovery rebuilt.
func checkRecovered(t *testing.T, c *oracle.Case) {
	script := append(c.Load(), c.Script...)
	sys := toorjah.NewSystem(c.Schema)
	if err := sys.BindDatabase(logged(t, c.Schema, t.TempDir(), script, func(i int) bool { return i == len(script)/2 })); err != nil {
		t.Fatal(err)
	}
	ref := c
	if c.Script != nil {
		ref = c.Replay()
	}
	checkQueryEndpoint(t, ref, sys, "recovered", "uncached")
}
