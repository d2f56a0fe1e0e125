package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"toorjah"
	"toorjah/internal/service"
)

// quietLogger swallows server-side logging, so standard output carries the
// metric table and nothing else.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// opHeader carries the bench's operation id to node0's middleware; node1's
// /probe requests are keyed by the trace id the service already propagates.
const (
	opHeader    = "X-Bench-Op"
	traceHeader = "X-Toorjah-Trace"
)

// node is one in-process toorjahd: service.New(...).Handler() — the route
// table toorjahd serves — on a loopback listener.
type node struct {
	sys    *toorjah.System
	url    string
	hs     *http.Server
	served chan struct{} // closed once Serve has returned
	mw     *middleware   // nil unless the run is traced
}

// startNode serves sys on a free loopback port. With mw set, every request
// passes through the bench's span-recording middleware first.
func startNode(sys *toorjah.System, mw *middleware, opts ...service.Option) (*node, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := service.New(sys, toorjah.Options{}, opts...).Handler()
	if mw != nil {
		h = mw.wrap(h)
	}
	n := &node{
		sys:    sys,
		url:    "http://" + lis.Addr().String(),
		hs:     &http.Server{Handler: h, ErrorLog: slog.NewLogLogger(quietLogger.Handler(), slog.LevelError)},
		served: make(chan struct{}),
		mw:     mw,
	}
	go func() {
		defer close(n.served)
		// Serve returns ErrServerClosed once close() runs; nothing else
		// stops it, and a broken listener shows as failed operations.
		_ = n.hs.Serve(lis)
	}()
	return n, nil
}

// close stops the listener and the connections and waits for Serve to end.
func (n *node) close() {
	_ = n.hs.Close() // in-flight requests are the bench's own and have ended
	<-n.served
}

// handlerSpan is one request as a node's handler saw it.
type handlerSpan struct {
	start, end time.Time
	bytes      int
}

// middleware times requests around a node's whole route table and counts
// the response bytes. It records only while on is set (the traced phase),
// keyed by the operation or trace id the request carries.
type middleware struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans map[string][]handlerSpan
}

func newMiddleware() *middleware {
	return &middleware{spans: make(map[string][]handlerSpan)}
}

// countingWriter counts response bytes and keeps streaming flushes working.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (m *middleware) wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(opHeader)
		if key == "" {
			key = r.Header.Get(traceHeader)
		}
		if key == "" || !m.on.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		inner.ServeHTTP(cw, r)
		sp := handlerSpan{start: start, end: time.Now(), bytes: cw.n}
		m.mu.Lock()
		m.spans[key] = append(m.spans[key], sp)
		m.mu.Unlock()
	})
}

// take removes and returns the spans recorded under key.
func (m *middleware) take(key string) []handlerSpan {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp := m.spans[key]
	delete(m.spans, key)
	return sp
}

// scrape fetches a node's /metrics and sums every family over its labels
// (histogram _bucket series are skipped; _sum and _count are kept).
func scrape(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("exposition line without a value: %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition value in %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}
