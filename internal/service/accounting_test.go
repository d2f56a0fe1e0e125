package service

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"toorjah"
	"toorjah/internal/obs"
	"toorjah/internal/schema"
	"toorjah/internal/source/sourcetest"
)

// urlQuery renders a query text — one disjunct per line — as a /query URL.
func urlQuery(base, text string) string {
	return base + "/query?q=" + strings.ReplaceAll(strings.ReplaceAll(text, "\n", "%0A"), " ", "%20")
}

var hitRatioInLog = regexp.MustCompile(`cache_hit_ratio=(\S+)`)

// TestOneProducerPerNumber: an access is counted once, below the cache, and
// every view of the count is that one count. After each of a cold CQ, its
// warm repeat, a UCQ whose disjuncts overlap and a query whose source fails
// mid-run, on a node with a cache over audited counters: the done line says
// what reached the audited tables; /metrics' toorjah_source_* families say,
// per relation, exactly what the audit counters say — the failed query's
// completed round trips included; and what the query asked for beyond that
// (Result.Demanded, through the query log's cache_hit_ratio) is what the
// cache says it absorbed, hits and collapsed.
func TestOneProducerPerNumber(t *testing.T) {
	sys, counters := newTestSystem(t, toorjah.WithCache(toorjah.CacheOptions{}))
	srv := New(sys, toorjah.Options{})
	var log syncBuffer
	srv.queryLog = obs.NewQueryLog(slog.New(slog.NewTextHandler(&log, nil)), 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	audited := func() (total toorjah.SourceStats) {
		for _, ctr := range counters {
			total.Add(ctr.Stats())
		}
		return total
	}
	absorbed := func() int64 {
		tot := sys.AccessCache().Totals()
		return tot.Hits + tot.Collapsed
	}
	// agree holds the server-side view to the audit counters, relation by
	// relation.
	agree := func(when string) {
		t.Helper()
		body := scrapeMetrics(t, ts.URL)
		for rel, ctr := range counters {
			want := ctr.Stats()
			for family, n := range map[string]int{
				"toorjah_source_accesses_total":    want.Accesses,
				"toorjah_source_round_trips_total": want.Batches,
				"toorjah_source_tuples_total":      want.Tuples,
			} {
				if got := metricValue(t, body, family+`{relation="`+rel+`"}`); got != float64(n) {
					t.Errorf("%s: %s{%s} = %v, the audit counter %d", when, family, rel, got, n)
				}
			}
		}
	}
	// served runs one query that must succeed and checks its own bill.
	served := func(when, text string) {
		t.Helper()
		before, absorbedBefore, logged := audited(), absorbed(), len(log.String())
		answers, done := queryNDJSON(t, urlQuery(ts.URL, text))
		if strings.Join(answers, ";") != "alice" {
			t.Fatalf("%s: answers = %v, want alice", when, answers)
		}
		reached := audited()
		reached.Accesses -= before.Accesses
		reached.Batches -= before.Batches
		reached.Tuples -= before.Tuples
		if got := (toorjah.SourceStats{Accesses: done.Accesses, Batches: done.Batches, Tuples: done.Tuples}); got != reached {
			t.Errorf("%s: the done line bills %+v, the audited tables saw %+v", when, got, reached)
		}
		m := hitRatioInLog.FindStringSubmatch(log.String()[logged:])
		if m == nil {
			t.Fatalf("%s: no cache_hit_ratio in the query log: %s", when, log.String()[logged:])
		}
		ratio, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		// Demanded − accesses = hits + collapsed, so the ratio the log derives
		// from Result.Demanded is the cache's own count over the same total.
		want := 0.0
		if saved := float64(absorbed() - absorbedBefore); saved > 0 {
			want = saved / (saved + float64(done.Accesses))
		}
		if math.Abs(ratio-want) > 1e-9 {
			t.Errorf("%s: the log's cache_hit_ratio is %v; the cache absorbed %d of %d demanded accesses (%v)",
				when, ratio, absorbed()-absorbedBefore, absorbed()-absorbedBefore+int64(done.Accesses), want)
		}
		agree(when)
	}

	served("cold CQ", pubQuery)
	if n := audited().Accesses; n != 5 {
		t.Fatalf("the cold query reached the tables %d times, want 5", n)
	}
	served("warm repeat", pubQuery)
	if n := audited().Accesses; n != 5 {
		t.Fatalf("the warm repeat took the tables from 5 to %d accesses", n)
	}
	sys.AccessCache().Clear() // the union's disjuncts race for the same accesses
	served("UCQ", pubUCQ)

	// rev fails; what was probed before it — conf, over plain tables, whose
	// round trips the coordinator makes one at a time — happened whatever
	// became of the query.
	sys.AccessCache().Clear()
	sys.Bind(sourcetest.NewFlaky(counters["rev"], 0, errors.New("rev is down")))
	before := audited()
	resp, err := http.Get(urlQuery(ts.URL, pubQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "rev is down") {
		t.Fatalf("the query over a failing source answered %q", body)
	}
	if got := audited().Accesses - before.Accesses; got != 1 {
		t.Errorf("the failed query reached the tables %d times, want 1 (conf once; the run stops at rev)", got)
	}
	agree("failed query")
}

// TestProbeServesCurrentBindings: /probe resolves the relation when the
// request arrives, so a relation first bound, rebound or replaced wholesale
// after the server was built is served as it stands — with the cross-query
// cache in front of it or not.
func TestProbeServesCurrentBindings(t *testing.T) {
	for name, opts := range map[string][]toorjah.SystemOption{
		"uncached": nil,
		"cached":   {toorjah.WithCache(toorjah.CacheOptions{})},
	} {
		t.Run(name, func(t *testing.T) {
			sch := schema.MustParse(pubSchemaText)
			sys := toorjah.NewSystem(sch, opts...)
			if err := sys.BindRows("conf", pubRows["conf"]...); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(New(sys, toorjah.Options{}).Handler())
			defer ts.Close()
			// probeRev asks the node for rev's reviewers of (C, y2008).
			probeRev := func(when, want string) {
				t.Helper()
				resp, err := http.Post(ts.URL+"/probe", "application/json",
					strings.NewReader(`{"relation":"rev","bindings":[["y2008"]]}`))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: /probe status %d: %s", when, resp.StatusCode, body)
				}
				var got []string
				for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
					var frame struct {
						Row []string `json:"row"`
					}
					if err := json.Unmarshal([]byte(line), &frame); err != nil {
						t.Fatalf("%s: bad frame %q: %v", when, line, err)
					}
					if frame.Row != nil {
						got = append(got, frame.Row[0])
					}
				}
				if strings.Join(got, ",") != want {
					t.Errorf("%s: /probe returned reviewers %v, want %s", when, got, want)
				}
			}

			// (a) rev was never bound: the insert binds it.
			if _, err := sys.Insert("rev", toorjah.Row{"alice", "icde", "y2008"}); err != nil {
				t.Fatal(err)
			}
			probeRev("after an insert into a never-bound relation", "alice")
			// (b) a rebind replaces the table behind the relation.
			if err := sys.BindRows("rev", toorjah.Row{"bob", "vldb", "y2008"}); err != nil {
				t.Fatal(err)
			}
			probeRev("after a rebind", "bob")
			// (c) BindDatabase replaces every binding at once.
			db := pubDatabase(t, sch)
			db.Table("rev").InsertAll([]toorjah.Row{{"carol", "sigmod", "y2008"}})
			if err := sys.BindDatabase(db); err != nil {
				t.Fatal(err)
			}
			probeRev("after BindDatabase", "alice,carol")
		})
	}
}
