package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	s.SetAttr("k", 1)
	s.End()
	if c := s.Child("x"); c != nil {
		t.Fatal("nil span Child should return nil")
	}
	// A context without a span yields nil spans from StartSpan, and the
	// context comes back unchanged.
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "probe")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpan without a trace should be a no-op")
	}
}

func TestSpanTree(t *testing.T) {
	tr := NewTrace("abc123", "query")
	ctx := ContextWithSpan(context.Background(), tr.Root)
	ctx, d := StartSpan(ctx, "disjunct")
	d.SetAttr("index", 0)
	_, p := StartSpan(ctx, "probe")
	p.SetAttr("relation", "conf")
	p.End()
	d.End()
	tr.Root.End()

	j := tr.JSON()
	if j.Name != "query" || len(j.Children) != 1 {
		t.Fatalf("unexpected root: %+v", j)
	}
	dj := j.Children[0]
	if dj.Name != "disjunct" || dj.Attrs["index"] != 0 || len(dj.Children) != 1 {
		t.Fatalf("unexpected disjunct span: %+v", dj)
	}
	pj := dj.Children[0]
	if pj.Name != "probe" || pj.Attrs["relation"] != "conf" {
		t.Fatalf("unexpected probe span: %+v", pj)
	}
	if pj.StartMS < 0 || pj.DurMS < 0 {
		t.Fatalf("negative offsets: %+v", pj)
	}
}

func TestTraceIDContext(t *testing.T) {
	ctx := ContextWithTraceID(context.Background(), "deadbeef")
	if got := TraceIDFromContext(ctx); got != "deadbeef" {
		t.Fatalf("trace id = %q", got)
	}
	if got := TraceIDFromContext(context.Background()); got != "" {
		t.Fatalf("empty context trace id = %q", got)
	}
	var nilCtx context.Context
	if got := TraceIDFromContext(nilCtx); got != "" {
		t.Fatalf("nil context trace id = %q", got)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("ids %q, %q: want 16 hex digits", a, b)
	}
	if a == b {
		t.Fatal("two fresh trace IDs collided")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTrace("x", "query")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := tr.Root.Child("probe")
				c.SetAttr("n", j)
				c.End()
			}
		}()
	}
	// Serialize concurrently with the appends: JSON must not race.
	for i := 0; i < 20; i++ {
		tr.JSON()
	}
	wg.Wait()
	if got := len(tr.JSON().Children); got != 800 {
		t.Fatalf("children = %d, want 800", got)
	}
}

func TestQueryLogSlowThreshold(t *testing.T) {
	var buf bytes.Buffer
	l := NewQueryLog(slog.New(slog.NewTextHandler(&buf, nil)), 50*time.Millisecond)

	l.Query(QueryRecord{TraceID: "aa", Query: "q(X) :- r(X)", Executor: "pipelined",
		Answers: 3, Accesses: 5, Demanded: 10, Elapsed: 10 * time.Millisecond})
	fast := buf.String()
	if !strings.Contains(fast, "level=INFO") || strings.Contains(fast, "slow=true") {
		t.Fatalf("fast query logged wrong: %s", fast)
	}
	if !strings.Contains(fast, "cache_hit_ratio=0.5") {
		t.Fatalf("cache hit ratio missing: %s", fast)
	}

	buf.Reset()
	l.Query(QueryRecord{TraceID: "bb", Query: "q(X) :- r(X)", Elapsed: 80 * time.Millisecond})
	slow := buf.String()
	if !strings.Contains(slow, "level=WARN") || !strings.Contains(slow, "slow=true") {
		t.Fatalf("slow query logged wrong: %s", slow)
	}

	// Nil log is a no-op.
	var nilLog *QueryLog
	nilLog.Query(QueryRecord{})
	nilLog.Probe("id", "r", 1, 1, time.Millisecond)
}

// discardHandler takes every record and keeps none of it.
type discardHandler struct{ level slog.Level }

func (h discardHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= h.level }
func (discardHandler) Handle(context.Context, slog.Record) error      { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler           { return h }
func (h discardHandler) WithGroup(string) slog.Handler                { return h }

// TestQueryLogAllocs: a logged query costs the record room for the
// attributes that do not fit in it inline — one allocation (two under the
// race detector, whose slices.Grow allocates twice), not one per attribute —
// a probe fits and costs none, and a record below the handler's level costs
// nothing.
func TestQueryLogAllocs(t *testing.T) {
	rec := QueryRecord{TraceID: "aa", Query: "q(X) :- r(X)", Executor: "pipelined",
		Answers: 3, Accesses: 5, Demanded: 10, Elapsed: 10 * time.Millisecond}
	for _, c := range []struct {
		name   string
		level  slog.Level
		log    func(*QueryLog)
		budget float64
	}{
		{"query", slog.LevelInfo, func(l *QueryLog) { l.Query(rec) }, 2},
		{"probe", slog.LevelInfo, func(l *QueryLog) { l.Probe("aa", "r", 1, 2, time.Millisecond) }, 0},
		{"query below the level", slog.LevelWarn, func(l *QueryLog) { l.Query(rec) }, 0},
	} {
		l := NewQueryLog(slog.New(discardHandler{c.level}), time.Second)
		if n := testing.AllocsPerRun(100, func() { c.log(l) }); n > c.budget {
			t.Errorf("%s: %.0f allocations, budget %.0f", c.name, n, c.budget)
		}
	}
}

func TestCacheHitRatio(t *testing.T) {
	cases := []struct {
		demanded, probed int
		want             float64
	}{
		{0, 0, 0}, {10, 10, 0}, {10, 5, 0.5}, {4, 1, 0.75}, {5, 9, 0},
	}
	for _, c := range cases {
		r := QueryRecord{Demanded: c.demanded, Accesses: c.probed}
		if got := r.CacheHitRatio(); got != c.want {
			t.Errorf("ratio(%d,%d) = %g, want %g", c.demanded, c.probed, got, c.want)
		}
	}
}
