package load

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"toorjah/internal/obs"
	"toorjah/internal/stats"
)

// serverFamilies are the /metrics counter families whose before/after
// deltas the report embeds next to the client-observed numbers — the
// server's own account of what the load did to it.
var serverFamilies = []string{
	"toorjah_queries_served_total",
	"toorjah_ucqs_served_total",
	"toorjah_probes_served_total",
	"toorjah_ingests_served_total",
	"toorjah_ingest_rows_total",
	"toorjah_cache_hits_total",
	"toorjah_cache_misses_total",
	"toorjah_source_accesses_total",
	"toorjah_source_round_trips_total",
	"toorjah_remote_round_trips_total",
	"toorjah_remote_retries_total",
	"toorjah_remote_breaker_opens_total",
	"toorjah_response_write_errors_total",
	// Present only on nodes running durable (-wal); absent families
	// delta to zero and stay out of the report.
	"toorjah_wal_appends_total",
	"toorjah_wal_appended_bytes_total",
	"toorjah_wal_syncs_total",
	"toorjah_wal_errors_total",
	"toorjah_wal_segments_sealed_total",
}

// ScenarioResult is one scenario's scored outcome.
type ScenarioResult struct {
	Scenario Scenario `json:"scenario"`
	Measured Measured `json:"measured"`
	Pass     bool     `json:"pass"`
	Reasons  []string `json:"reasons,omitempty"`

	// P50 / P99 / P999 are client-observed latency quantiles in seconds
	// (NaN-free: zero when the scenario saw no requests).
	P50, P99, P999 float64
	// Throughput is requests per second over the timed phase.
	Throughput float64
	// MeanAccesses is the average per-request access count the server
	// reported in its summary frames (KindQuery only).
	MeanAccesses float64
}

// Report is one load run's full outcome.
type Report struct {
	Suite   string
	Config  Config
	Results []ScenarioResult
	Aggreg  ScenarioResult
	// ServerDeltas maps node name → metric family → counter delta across
	// the run (only nonzero families are kept).
	ServerDeltas map[string]map[string]float64
}

// Pass reports whether every scenario passed.
func (r *Report) Pass() bool {
	for _, res := range r.Results {
		if !res.Pass {
			return false
		}
	}
	return true
}

// quantiles pulls the three headline percentiles out of a tally, mapping
// the empty-histogram NaN to 0 so reports and JSON stay finite.
func quantiles(h *obs.Histogram) (p50, p99, p999 float64) {
	fin := func(v float64) float64 {
		if v != v { // NaN
			return 0
		}
		return v
	}
	return fin(h.Quantile(0.50)), fin(h.Quantile(0.99)), fin(h.Quantile(0.999))
}

func buildReport(suiteName string, scenarios []Scenario, tallies []*tally, aggregate *tally,
	compares map[string][2]int, crashes map[string]*CrashResult,
	before, after map[string]*obs.Scrape, cfg Config) *Report {

	rep := &Report{Suite: suiteName, Config: cfg, ServerDeltas: make(map[string]map[string]float64)}
	secs := cfg.Duration.Seconds()

	score := func(sc Scenario, t *tally) ScenarioResult {
		m := t.measured()
		if c, ok := compares[sc.Name]; ok {
			m.AdaptiveAccesses, m.StaticAccesses = c[0], c[1]
			if m.Requests == 0 {
				m.Requests = 1 // the one comparison run
			}
		}
		if cr, ok := crashes[sc.Name]; ok {
			m.AckedBatches, m.SurvivedBatches = cr.Acked, cr.Survived
			m.Violations = cr.Violations
			if m.Requests == 0 {
				m.Requests = 1 // the one crash round
			}
		}
		pass, reasons := Evaluate(sc, m)
		r := ScenarioResult{Scenario: sc, Measured: m, Pass: pass, Reasons: reasons}
		r.P50, r.P99, r.P999 = quantiles(t.hist)
		if secs > 0 {
			r.Throughput = float64(m.Requests) / secs
		}
		if n := t.requests.Load(); n > 0 {
			r.MeanAccesses = float64(t.accesses.Load()) / float64(n)
		}
		return r
	}

	for i, sc := range scenarios {
		rep.Results = append(rep.Results, score(sc, tallies[i]))
	}
	rep.Aggreg = score(Scenario{Name: "aggregate"}, aggregate)
	rep.Aggreg.Pass = rep.Pass()

	for node, b := range before {
		a, ok := after[node]
		if !ok {
			continue
		}
		deltas := make(map[string]float64)
		for _, fam := range serverFamilies {
			if d := a.SumDelta(b, fam); d != 0 {
				deltas[fam] = d
			}
		}
		if len(deltas) > 0 {
			rep.ServerDeltas[node] = deltas
		}
	}
	return rep
}

// WriteJSON writes the report as it stands — every scenario's declaration,
// measurement, verdict and latency quantiles (seconds), the whole-run rollup
// and the servers' counter deltas — as one indented JSON object.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// table renders the per-scenario rows into t (shared by Text and Markdown).
func (r *Report) table(t *stats.Table) {
	t.Header("scenario", "kind", "reqs", "err%", "p50", "p99", "p999", "rps", "acc/op", "result")
	row := func(res ScenarioResult) {
		errPct := "-"
		if res.Measured.Requests > 0 {
			errPct = fmt.Sprintf("%.2f%%", 100*float64(res.Measured.Errors)/float64(res.Measured.Requests))
		}
		verdict := "PASS"
		if !res.Pass {
			verdict = "FAIL: " + strings.Join(res.Reasons, "; ")
		}
		acc := "-"
		switch res.Scenario.Kind {
		case KindQuery:
			acc = fmt.Sprintf("%.1f", res.MeanAccesses)
		case KindCompare:
			acc = fmt.Sprintf("%d vs %d", res.Measured.AdaptiveAccesses, res.Measured.StaticAccesses)
		case KindCrash:
			acc = fmt.Sprintf("%d acked/%d ok", res.Measured.AckedBatches, res.Measured.SurvivedBatches)
		}
		t.Row(res.Scenario.Name, string(res.Scenario.Kind),
			fmt.Sprintf("%d", res.Measured.Requests), errPct,
			fmtDur(res.P50), fmtDur(res.P99), fmtDur(res.P999),
			fmt.Sprintf("%.0f", res.Throughput), acc, verdict)
	}
	for _, res := range r.Results {
		row(res)
	}
	agg := r.Aggreg
	agg.Scenario.Kind = "-"
	row(agg)
}

// fmtDur renders seconds human-readably (µs below 1ms, ms below 1s).
func fmtDur(s float64) string {
	d := time.Duration(s * float64(time.Second))
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// Text renders the human-readable run summary: the scored scenario table
// followed by the server-side counter deltas.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "suite %s: %d clients, %s\n\n", r.Suite, r.Config.Clients, r.Config.Duration)
	var t stats.Table
	r.table(&t)
	b.WriteString(t.String())
	r.writeDeltas(&b, func(node string) string { return "\nserver deltas (" + node + "):\n" },
		func(fam string, v float64) string { return fmt.Sprintf("  %-40s %+.0f\n", fam, v) })
	return b.String()
}

// Markdown renders the same report as GFM for CI job summaries.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Load run: suite `%s` (%d clients, %s)\n\n", r.Suite, r.Config.Clients, r.Config.Duration)
	var t stats.Table
	r.table(&t)
	b.WriteString(t.Markdown())
	r.writeDeltas(&b, func(node string) string { return "\n**Server deltas (" + node + "):**\n\n" },
		func(fam string, v float64) string { return fmt.Sprintf("- `%s` %+.0f\n", fam, v) })
	return b.String()
}

func (r *Report) writeDeltas(b *strings.Builder, head func(string) string, line func(string, float64) string) {
	nodes := make([]string, 0, len(r.ServerDeltas))
	for n := range r.ServerDeltas {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		b.WriteString(head(node))
		fams := make([]string, 0, len(r.ServerDeltas[node]))
		for f := range r.ServerDeltas[node] {
			fams = append(fams, f)
		}
		sort.Strings(fams)
		for _, f := range fams {
			b.WriteString(line(f, r.ServerDeltas[node][f]))
		}
	}
}
