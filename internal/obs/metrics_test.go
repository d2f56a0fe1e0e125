package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration under the same name returns the same instrument.
	if r.Counter("test_total", "a counter") != c {
		t.Fatal("re-registered counter is a different instrument")
	}
}

func TestCounterVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("rel_total", "per relation", "relation")
	v.With("a").Add(2)
	v.With("b").Inc()
	v.With("a").Inc()
	if got := v.With("a").Value(); got != 3 {
		t.Fatalf("series a = %d, want 3", got)
	}
	if got := v.With("b").Value(); got != 1 {
		t.Fatalf("series b = %d, want 1", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 6, 20} {
		h.Observe(v)
	}
	if got := observations(h); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
	if got := h.Sum(); math.Abs(got-38.5) > 1e-9 {
		t.Fatalf("sum = %g, want 38.5", got)
	}
}

// observations returns the number of values h has observed.
func observations(h *Histogram) uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // le="1" (equal belongs to the bucket)
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("bucket le=1 = %d, want 1", got)
	}
	if got := h.counts[1].Load(); got != 1 {
		t.Fatalf("bucket le=2 = %d, want 1", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Fatalf("bucket +Inf = %d, want 1", got)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_count_total", "a counter").Add(3)
	v := r.CounterVec("t_rel_total", "per relation", "relation")
	v.With("conf").Add(2)
	v.With(`we"ird\rel`).Inc()
	v.With("two\nlines").Add(4)
	h := r.Histogram("t_lat_seconds", "latency", []float64{0.01, 0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.GaugeFunc("t_dynamic", "computed at scrape", func() float64 { return 42 })
	r.GaugeVecFunc("t_dyn_rel", "computed per relation", []string{"relation"},
		func(emit func([]string, float64)) {
			emit([]string{"b"}, 2)
			emit([]string{"a"}, 1)
		})

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP t_count_total a counter\n# TYPE t_count_total counter\nt_count_total 3\n",
		`t_rel_total{relation="conf"} 2`,
		`t_rel_total{relation="we\"ird\\rel"} 1`,
		`t_rel_total{relation="two\nlines"} 4`,
		"# TYPE t_lat_seconds histogram",
		`t_lat_seconds_bucket{le="0.01"} 0`,
		`t_lat_seconds_bucket{le="0.1"} 1`,
		`t_lat_seconds_bucket{le="1"} 2`,
		`t_lat_seconds_bucket{le="+Inf"} 3`,
		"t_lat_seconds_count 3\n",
		"t_dynamic 42\n",
		`t_dyn_rel{relation="a"} 1`,
		`t_dyn_rel{relation="b"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// Families render in sorted order: deterministic scrapes.
	if strings.Index(out, "t_count_total") > strings.Index(out, "t_dynamic") {
		t.Error("families not sorted")
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE toorjah_build_info gauge",
		`toorjah_build_info{version=`,
		"# TYPE toorjah_goroutines gauge",
		"# TYPE toorjah_heap_objects_bytes gauge",
		"# TYPE toorjah_gc_cycles_total counter",
		"# TYPE toorjah_gc_pause_seconds_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// sample reads an unlabeled series' value off its exposition line.
	sample := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("no %s line in\n%s", name, text)
		return 0
	}
	if got := sample("toorjah_goroutines"); got < 1 {
		t.Errorf("goroutines = %v, want >= 1", got)
	}
	if got := sample("toorjah_heap_objects_bytes"); got <= 0 {
		t.Errorf("heap bytes = %v, want > 0", got)
	}
}

func TestWriteTextConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	v := r.CounterVec("c_rel_total", "per relation", "relation")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.005)
					v.With("r").Inc()
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		// Cumulative buckets must be monotone even mid-write.
		assertMonotoneBuckets(t, b.String(), "c_lat_seconds_bucket")
	}
	close(stop)
	wg.Wait()
}

// assertMonotoneBuckets parses the _bucket lines of one histogram family
// and fails if the cumulative counts ever decrease.
func assertMonotoneBuckets(t *testing.T, text, prefix string) {
	t.Helper()
	last := int64(-1)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad bucket line %q", line)
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket value %q: %v", fields[1], err)
		}
		if n < last {
			t.Fatalf("bucket counts not monotone: %d after %d in %q", n, last, line)
		}
		last = n
	}
	if last < 0 {
		t.Fatalf("no %s lines found", prefix)
	}
}
