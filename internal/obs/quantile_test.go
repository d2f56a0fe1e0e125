package obs

import (
	"math"
	"strings"
	"testing"
)

// TestQuantileFromBucketsReference pins the estimator against exact values
// of a reference distribution: the integers 1..100 observed once each into
// decade buckets. Every decade bucket then holds exactly 10 observations,
// so linear interpolation reproduces the underlying uniform distribution
// exactly and the expected quantiles need no tolerance.
func TestQuantileFromBucketsReference(t *testing.T) {
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := newHistogram(bounds)
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	cases := []struct{ q, want float64 }{
		{0.5, 50},
		{0.9, 90},
		{0.99, 99},
		{0.999, 99.9},
		{0.05, 5},
		{1, 100},
	}
	for _, c := range cases {
		if got := QuantileFromBuckets(bounds, h.CumulativeCounts(), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q=%v: got %v, want %v", c.q, got, c.want)
		}
		// The histogram's own method is the same estimator.
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Histogram.Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileFromBucketsEdgeCases(t *testing.T) {
	bounds := []float64{1, 2}
	if got := QuantileFromBuckets(bounds, []uint64{0, 0, 0}, 0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram: got %v, want NaN", got)
	}
	if got := QuantileFromBuckets(bounds, []uint64{1, 2, 2}, 0); !math.IsNaN(got) {
		t.Errorf("q=0: got %v, want NaN", got)
	}
	if got := QuantileFromBuckets(bounds, []uint64{1, 2, 2}, 1.5); !math.IsNaN(got) {
		t.Errorf("q>1: got %v, want NaN", got)
	}
	if got := QuantileFromBuckets(nil, nil, 0.5); !math.IsNaN(got) {
		t.Errorf("no buckets: got %v, want NaN", got)
	}
	// Rank in the +Inf bucket clamps to the highest finite bound.
	if got := QuantileFromBuckets(bounds, []uint64{0, 0, 10}, 0.5); got != 2 {
		t.Errorf("+Inf rank: got %v, want 2", got)
	}
	// cum without the +Inf entry works too: the last finite count is the total.
	if got := QuantileFromBuckets(bounds, []uint64{2, 4}, 0.5); math.Abs(got-1) > 1e-9 {
		t.Errorf("no-inf cum: got %v, want 1", got)
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
	sc, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Sum("toorjah_goroutines"); got < 1 {
		t.Errorf("goroutines = %v, want >= 1", got)
	}
	if got := sc.Sum("toorjah_heap_objects_bytes"); got <= 0 {
		t.Errorf("heap bytes = %v, want > 0", got)
	}
}
