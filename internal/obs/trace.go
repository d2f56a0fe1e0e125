package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"
)

// Tracing: a per-query span tree carried through context.Context. A trace
// ID is generated for every query (it feeds the query log and propagates
// to federated peers in the X-Toorjah-Trace header); the span tree itself
// is only built when the client asks for it (?trace=1), so the off path
// costs one context value lookup per probe batch and nothing else. All
// *Span methods are nil-safe: instrumented code calls StartSpan
// unconditionally and gets a nil span (a no-op) when tracing is off.

// TraceHeader is the HTTP header carrying the query's trace ID to
// federated peers on /probe, so one query's trace stitches across nodes.
const TraceHeader = "X-Toorjah-Trace"

// NewTraceID returns a fresh 16-hex-digit random trace ID. It names a
// query and guards nothing, so math/rand's generator serves, without a
// system call.
func NewTraceID() string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], rand.Uint64())
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// Span is one node of the trace tree. Attrs and children are mutex-guarded
// because executors probe concurrently (pipelined round trips, union
// disjuncts). A nil *Span is a valid no-op receiver for every method.
type Span struct {
	Name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    map[string]any
	children []*Span
}

// Trace is the root of one query's span tree.
type Trace struct {
	ID   string
	Root *Span
}

// NewTrace starts a trace with the given ID and a root span.
func NewTrace(id, rootName string) *Trace {
	return &Trace{ID: id, Root: newSpan(rootName)}
}

func newSpan(name string) *Span {
	return &Span{Name: name, start: time.Now()}
}

// Child starts a child span under s; returns nil (a no-op span) if s is
// nil, so callers never branch on tracing being enabled.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End closes the span (idempotent; a span left open renders with the
// duration up to serialization).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SpanJSON is the wire form of a span, with start offsets relative to the
// trace root so the tree is self-contained.
type SpanJSON struct {
	Name     string         `json:"name"`
	StartMS  float64        `json:"start_ms"`
	DurMS    float64        `json:"dur_ms"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []SpanJSON     `json:"children,omitempty"`
}

// JSON serializes the trace's span tree (ending any still-open spans'
// rendering at now). Safe to call while spans are still being appended —
// each span's lock is taken while its fields are copied.
func (t *Trace) JSON() SpanJSON {
	if t == nil || t.Root == nil {
		return SpanJSON{}
	}
	return t.Root.toJSON(t.Root.start)
}

func (s *Span) toJSON(origin time.Time) SpanJSON {
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	out := SpanJSON{
		Name:    s.Name,
		StartMS: float64(s.start.Sub(origin)) / float64(time.Millisecond),
		DurMS:   float64(end.Sub(s.start)) / float64(time.Millisecond),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			out.Attrs[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.toJSON(origin))
	}
	return out
}

// Context plumbing. Two independent keys: the trace ID (always present for
// a served query — feeds logs and the peer header) and the current span
// (present only when span collection is on).

type ctxKey int

const (
	ctxKeyTraceID ctxKey = iota
	ctxKeySpan
)

// ContextWithTraceID attaches a trace ID to the context.
func ContextWithTraceID(ctx context.Context, id string) context.Context {
	return &traceIDCtx{ctx, id}
}

// traceIDCtx is context.WithValue in one allocation, not two: its value is
// a pointer to its own field, where WithValue would box the string.
type traceIDCtx struct {
	context.Context
	id string
}

func (c *traceIDCtx) Value(key any) any {
	if key == ctxKeyTraceID {
		return &c.id
	}
	return c.Context.Value(key)
}

// TraceIDFromContext returns the context's trace ID, or "".
func TraceIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if id, ok := ctx.Value(ctxKeyTraceID).(*string); ok {
		return *id
	}
	return ""
}

// ContextWithSpan attaches the current span to the context.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeySpan, s)
}

// SpanFromContext returns the context's current span, or nil (a no-op
// span) when tracing is off.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKeySpan).(*Span)
	return s
}

// StartSpan starts a child of the context's current span and returns the
// derived context carrying it. When the context has no span (tracing off),
// it returns the context unchanged and a nil span — both no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.Child(name)
	return context.WithValue(ctx, ctxKeySpan, c), c
}
