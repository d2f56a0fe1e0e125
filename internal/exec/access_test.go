package exec

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"toorjah/internal/cache"
	"toorjah/internal/obs"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
)

// metered sums what a server's source-level families hold, read from the
// registry's exposition the way a scrape of /metrics reads them.
func metered(t *testing.T, reg *obs.Registry) source.Stats {
	t.Helper()
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	var st source.Stats
	for _, line := range strings.Split(text.String(), "\n") {
		series, val, _ := strings.Cut(line, " ")
		var into *int
		switch family, _, _ := strings.Cut(series, "{"); family {
		case "toorjah_source_accesses_total":
			into = &st.Accesses
		case "toorjah_source_round_trips_total":
			into = &st.Batches
		case "toorjah_source_tuples_total":
			into = &st.Tuples
		default:
			continue
		}
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		*into += int(n)
	}
	return st
}

// TestProbeContract runs source.Wrapper's contract test over the access path
// in its four shapes — the meter alone, the meter feeding a server's metric
// families, and behind the cross-query cache cold and warm — and checks that
// what the path recorded is what went through it: the run's source.Stats and
// the families agree to the tuple, refused batches move neither, and what the
// cache absorbed reached neither.
func TestProbeContract(t *testing.T) {
	for _, shape := range []struct {
		name                  string
		metrics, cached, warm bool
		want                  source.Stats
	}{
		// Two batches of six bindings, twelve tuples each.
		{name: "plain", want: source.Stats{Accesses: 12, Batches: 2, Tuples: 24}},
		{name: "metered", metrics: true, want: source.Stats{Accesses: 12, Batches: 2, Tuples: 24}},
		// The first batch's five distinct bindings, once; the rest are hits.
		{name: "cached cold", metrics: true, cached: true, want: source.Stats{Accesses: 5, Batches: 1, Tuples: 9}},
		{name: "cached warm", metrics: true, cached: true, warm: true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			f := sourcetest.New(t)
			reg := source.NewRegistry()
			reg.Bind(f.Source)
			var opts Options
			metrics := obs.NewRegistry()
			if shape.metrics {
				opts.Metrics = obs.NewProbeMetrics(metrics)
			}
			if shape.cached {
				opts.Cache = cache.New(cache.Options{})
			}
			var warmed source.Stats // what another execution paid to fill the cache
			if shape.warm {
				earlier, err := openAccess(reg, []string{"r"}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := earlier[0].top.Probe(context.Background(), f.Batch(), f.Dirty()); err != nil {
					t.Fatal(err)
				}
				warmed = statsOf([]string{"r"}, earlier)["r"]
			}

			paths, err := openAccess(reg, []string{"r"}, opts)
			if err != nil {
				t.Fatal(err)
			}
			f.Contract(t, paths[0].top, func() int { return int(paths[0].accesses.Load()) })

			got := statsOf([]string{"r"}, paths)
			if got["r"] != shape.want || (shape.want.Accesses == 0 && len(got) != 0) {
				t.Errorf("the run's stats = %+v, want %+v (a relation never probed is absent)", got, shape.want)
			}
			if shape.metrics {
				total := shape.want
				total.Add(warmed)
				if m := metered(t, metrics); m != total {
					t.Errorf("the metric families hold %+v, the executions' stats sum to %+v", m, total)
				}
			}
		})
	}
}

// TestAccessNeedsASource: a relation without a source fails the set-up, before
// any probe.
func TestAccessNeedsASource(t *testing.T) {
	f := sourcetest.New(t)
	reg := source.NewRegistry()
	reg.Bind(f.Source)
	if _, err := openAccess(reg, []string{"r", "unbound"}, Options{}); err == nil {
		t.Fatal("an access path was opened over a relation nothing is bound to")
	}
}

// accessSetup is BenchmarkAccessSetup's body: the per-run set-up of one
// relation with the cache and the metrics on, the shape of a served point
// query.
func accessSetup(t testing.TB) func() {
	f := sourcetest.New(t)
	reg := source.NewRegistry()
	reg.Bind(f.Source)
	opts := Options{Cache: cache.New(cache.Options{}), Metrics: obs.NewProbeMetrics(obs.NewRegistry())}
	rels := []string{"r"}
	return func() {
		paths, err := openAccess(reg, rels, opts)
		if err != nil || paths[0].top == nil {
			t.Fatal(err)
		}
	}
}

// TestAccessSetupAllocBudget: a relation costs an execution three objects —
// the pinned source, the meter (in the run's one slice of them) and the cache
// layer — and no label look-up once the server has probed it before.
func TestAccessSetupAllocBudget(t *testing.T) {
	setUp := accessSetup(t)
	setUp() // resolves the relation's metric handles, once per server
	const budget = 4
	if allocs := testing.AllocsPerRun(100, setUp); allocs > budget {
		t.Errorf("setting up one relation's access path makes %.0f allocations, budget %d", allocs, budget)
	}
}

func BenchmarkAccessSetup(b *testing.B) {
	setUp := accessSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setUp()
	}
}
