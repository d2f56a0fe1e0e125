package obs

import (
	"context"
	"log/slog"
	"time"
)

// QueryLog is the structured query log: one slog record per served query
// with its trace ID, latency, access accounting and cache-hit ratio.
// Queries at or above Slow are logged at Warn with slow=true (the
// -slow-query flag on toorjahd); everything else logs at Info. A nil
// *QueryLog is a no-op.
type QueryLog struct {
	log  *slog.Logger
	Slow time.Duration // 0 means no slow threshold
}

// NewQueryLog wraps a slog logger (nil means slog.Default) with a slow
// threshold.
func NewQueryLog(l *slog.Logger, slow time.Duration) *QueryLog {
	if l == nil {
		l = slog.Default()
	}
	return &QueryLog{log: l, Slow: slow}
}

// QueryRecord is one served query's accounting.
type QueryRecord struct {
	TraceID     string
	Query       string
	Executor    string // "pipelined", "union", ...
	Answers     int
	Accesses    int // probes that reached the sources
	Demanded    int // accesses requested above the cache (hits included)
	RoundTrips  int
	Elapsed     time.Duration
	TimeToFirst time.Duration
	Truncated   bool
	Err         error
}

// CacheHitRatio is (demanded − probed) / demanded — the fraction of
// requested accesses the cross-query cache absorbed. Zero when nothing
// was demanded.
func (r QueryRecord) CacheHitRatio() float64 {
	if r.Demanded <= 0 || r.Demanded <= r.Accesses {
		return 0
	}
	return float64(r.Demanded-r.Accesses) / float64(r.Demanded)
}

// Query logs one served query. The record's attributes are built only when
// the level is enabled, and handed over as slog.Attrs, not boxed into []any.
func (l *QueryLog) Query(r QueryRecord) {
	if l == nil {
		return
	}
	// last is the error, slow=true or empty: a handler ignores an empty Attr.
	level, last := slog.LevelInfo, slog.Attr{}
	switch {
	case r.Err != nil:
		level, last = slog.LevelError, slog.String("error", r.Err.Error())
	case l.Slow > 0 && r.Elapsed >= l.Slow:
		level, last = slog.LevelWarn, slog.Bool("slow", true)
	}
	ctx := context.Background()
	if !l.log.Enabled(ctx, level) {
		return
	}
	attrs := [...]slog.Attr{
		slog.String("trace_id", r.TraceID),
		slog.String("query", r.Query),
		slog.String("executor", r.Executor),
		slog.Int("answers", r.Answers),
		slog.Int("accesses", r.Accesses),
		slog.Int("round_trips", r.RoundTrips),
		slog.Float64("cache_hit_ratio", r.CacheHitRatio()),
		slog.Duration("elapsed", r.Elapsed),
		slog.Duration("time_to_first", r.TimeToFirst),
		slog.Bool("truncated", r.Truncated),
		last,
	}
	l.log.LogAttrs(ctx, level, "query", attrs[:]...)
}

// Probe logs one served federated probe (the peer side of a remote round
// trip), carrying the caller's trace ID so a cross-node trace stitches in
// the logs.
func (l *QueryLog) Probe(traceID, relation string, accesses, tuples int, elapsed time.Duration) {
	if l == nil {
		return
	}
	l.log.LogAttrs(context.Background(), slog.LevelInfo, "probe",
		slog.String("trace_id", traceID),
		slog.String("relation", relation),
		slog.Int("accesses", accesses),
		slog.Int("tuples", tuples),
		slog.Duration("elapsed", elapsed),
	)
}
