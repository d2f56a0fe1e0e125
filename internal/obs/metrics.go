// Package obs is the observability layer of the Toorjah service: a
// dependency-free metrics registry rendered in the Prometheus text
// exposition format, a lightweight span-tree tracer carried through
// context.Context, and a structured query log. Every signal the system
// already collects point-in-time (exec.Result stats, cache per-relation
// stats, remote telemetry, ingest counters) becomes scrapeable time series
// here, and the hot-path instruments — counters and fixed-bucket
// histograms — are single atomic operations, so instrumented executions
// cost no locks and no allocations per probe.
//
// The package deliberately implements only what toorjahd needs of the
// Prometheus exposition format (counters, gauges, histograms with
// cumulative le buckets, HELP/TYPE comments, label escaping); it is not a
// client library, and it computes no quantiles: /metrics exposes the raw
// buckets, and a scraper estimates percentiles from them.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric families are one of the three Prometheus types this registry
// renders.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Counter is a monotonically increasing integer metric. All methods are
// atomic and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must not be negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution: Observe is a binary search
// plus two atomic adds, with no locking and no allocation, so it is safe
// on the per-round-trip hot path. Buckets are cumulative upper bounds in
// ascending order; the +Inf bucket is implicit.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
}

// atomicFloat accumulates a float64 with a CAS loop (sync/atomic has no
// float add).
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// newHistogram validates and copies the bucket bounds.
func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	bounds := append([]float64(nil), buckets...)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending: %v", buckets))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; equal values belong to the
	// bucket (le = "less than or equal"), matching Prometheus semantics.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.value() }

// LatencyBuckets is the default histogram bucketing for durations in
// seconds: 0.5ms up to 10s, roughly logarithmic — wide enough for a cache
// hit and a cross-country federated probe to land in different buckets.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is the default bucketing for batch sizes (a distribution of
// small integers; MaxBatch defaults to 16, the protocol caps at 4096).
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096}

// family is one named metric family: a fixed type, help text and label
// names, with one series per distinct label-value combination — or a
// collector callback producing the series at scrape time.
type family struct {
	name       string
	help       string
	typ        string
	labelNames []string
	buckets    []float64

	mu     sync.Mutex
	series map[string]any // label signature -> *Counter | *Histogram

	collect func(emit func(labelValues []string, value float64))
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Instrument registration (Counter, Histogram, …) is
// for setup time; the returned instruments are the hot-path handles.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// familyFor registers (or fetches) a family, panicking on a conflicting
// re-registration — metric names are a public contract, so a clash is a
// programming error, not a runtime condition.
func (r *Registry) familyFor(name, help, typ string, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ,
			labelNames: append([]string(nil), labelNames...),
			series:     make(map[string]any)}
		r.fams[name] = f
		return f
	}
	if f.typ != typ || len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("obs: metric %s re-registered with a different type or labels", name))
	}
	return f
}

// seriesKey joins label values into the series map key.
func seriesKey(values []string) string { return strings.Join(values, "\x00") }

// instrument fetches or creates the series of one label combination.
func (f *family) instrument(values []string, create func() any) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s: %d label values for %d labels", f.name, len(values), len(f.labelNames)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[key]
	if !ok {
		m = create()
		f.series[key] = m
	}
	return m
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.familyFor(name, help, TypeCounter, nil)
	return f.instrument(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels. With costs a lock and a map
// lookup: fine once per request, resolved ahead of a per-access loop.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.familyFor(name, help, TypeCounter, labelNames)}
}

// With returns the counter of one label-value combination.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.instrument(labelValues, func() any { return &Counter{} }).(*Counter)
}

// Histogram registers an unlabeled histogram; nil buckets means
// LatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.familyFor(name, help, TypeHistogram, nil)
	f.buckets = buckets
	return f.instrument(nil, func() any { return newHistogram(buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers a labeled histogram family; nil buckets means
// LatencyBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	f := r.familyFor(name, help, TypeHistogram, labelNames)
	f.buckets = buckets
	return &HistogramVec{f: f, buckets: buckets}
}

// With returns the histogram of one label-value combination.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.instrument(labelValues, func() any { return newHistogram(v.buckets) }).(*Histogram)
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.familyFor(name, help, TypeGauge, nil)
	f.collect = func(emit func([]string, float64)) { emit(nil, fn()) }
}

// CounterFunc registers a counter computed at scrape time — for totals
// kept elsewhere (a stats snapshot); the callback must be monotone for the
// series to behave as a counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.familyFor(name, help, TypeCounter, nil)
	f.collect = func(emit func([]string, float64)) { emit(nil, fn()) }
}

// GaugeVecFunc registers a labeled gauge family collected at scrape time:
// collect is called per scrape and emits one sample per label combination.
func (r *Registry) GaugeVecFunc(name, help string, labelNames []string, collect func(emit func(labelValues []string, value float64))) {
	f := r.familyFor(name, help, TypeGauge, labelNames)
	f.collect = collect
}

// CounterVecFunc is GaugeVecFunc with counter semantics (the emitted
// values must be monotone per label combination).
func (r *Registry) CounterVecFunc(name, help string, labelNames []string, collect func(emit func(labelValues []string, value float64))) {
	f := r.familyFor(name, help, TypeCounter, labelNames)
	f.collect = collect
}

// escapeHelp escapes a HELP text per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...}; extra appends one more pair (used for
// the histogram le label).
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders every family in the Prometheus text exposition format,
// families and series in sorted order for deterministic output.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make(map[string]*family, len(r.fams))
	for n, f := range r.fams {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.collect != nil {
			type sample struct {
				labels string
				value  float64
			}
			var samples []sample
			f.collect(func(values []string, v float64) {
				samples = append(samples, sample{labelString(f.labelNames, values, "", ""), v})
			})
			sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
			for _, s := range samples {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.value))
			}
			continue
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		series := make(map[string]any, len(f.series))
		for k, m := range f.series {
			keys = append(keys, k)
			series[k] = m
		}
		f.mu.Unlock()
		sort.Strings(keys)
		for _, k := range keys {
			var values []string
			if k != "" || len(f.labelNames) > 0 {
				values = strings.Split(k, "\x00")
			}
			switch m := series[k].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labelNames, values, "", ""), formatValue(float64(m.Value())))
			case *Histogram:
				var cum uint64
				for i, bound := range m.bounds {
					cum += m.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						labelString(f.labelNames, values, "le", formatValue(bound)), cum)
				}
				cum += m.counts[len(m.bounds)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelString(f.labelNames, values, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name,
					labelString(f.labelNames, values, "", ""), formatValue(m.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name,
					labelString(f.labelNames, values, "", ""), cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry as a GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
