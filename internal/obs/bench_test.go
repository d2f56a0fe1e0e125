package obs

import (
	"context"
	"testing"
)

// What a /query request pays in this package on its way out — two histogram
// observations behind a label lookup, one trace ID, the spans of a traced
// run or the nil spans of an untraced one — priced per call.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve is the handler's form: the series resolved by
// label value per observation, a 40 µs sample into the latency buckets.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().HistogramVec("bench_seconds", "", LatencyBuckets, "executor")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.With("pipelined").Observe(40e-6)
	}
}

// BenchmarkSpanStartEnd/off is what every instrumented step of an untraced
// request costs; /on starts and ends a child under a fresh root, so the
// root's list of children does not grow with b.N.
func BenchmarkSpanStartEnd(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		ctx := ContextWithTraceID(context.Background(), "0123456789abcdef")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := StartSpan(ctx, "probe")
			sp.SetAttr("relation", "conf")
			sp.End()
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := ContextWithSpan(context.Background(), NewTrace("0123456789abcdef", "query").Root)
			_, sp := StartSpan(ctx, "probe")
			sp.SetAttr("relation", "conf")
			sp.End()
		}
	})
}

var traceIDSink string

func BenchmarkNewTraceID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		traceIDSink = NewTraceID()
	}
}
