package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toorjah/internal/ndjson"
	"toorjah/internal/obs"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// countingPeer serves h on loopback and counts the connections clients open
// to it.
func countingPeer(t testing.TB, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &dials
}

// idleConns is how many connections c keeps idle.
func idleConns(c *Client) int {
	c.tr.mu.Lock()
	defer c.tr.mu.Unlock()
	return len(c.tr.idle)
}

// TestTransportReusesOneConnection: sequential probes ride one keep-alive
// connection, which stays idle behind them.
func TestTransportReusesOneConnection(t *testing.T) {
	sch, reg := testRegistry(t)
	ts, dials := countingPeer(t, PeerMux(reg))
	c := Dial(ts.URL, fastOptions())
	defer c.Close()
	src := c.Source(sch.Relation("r"))
	for i := 0; i < 50; i++ {
		rows, err := access(src, "a1")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("probe %d: rows = %v, want 2", i, rows)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("50 sequential probes opened %d connections, want 1", got)
	}
	if got := idleConns(c); got != 1 {
		t.Errorf("%d idle connections after the probes, want 1", got)
	}
}

// TestTransportResendsOnStaleConnection: a peer that dropped its idle
// connections costs the next probe a re-send on a new connection, not a
// retry, a backoff or a second round trip.
func TestTransportResendsOnStaleConnection(t *testing.T) {
	sch, reg := testRegistry(t)
	ts, dials := countingPeer(t, PeerMux(reg))
	opts := fastOptions()
	opts.RetryBase, opts.RetryMax = time.Hour, time.Hour // a backoff would hang the test
	c := Dial(ts.URL, opts)
	defer c.Close()
	src := c.Source(sch.Relation("r"))
	for i := 0; i < 3; i++ {
		rows, err := access(src, "a1")
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if len(rows) != 2 {
			t.Fatalf("probe %d: rows = %v, want 2", i, rows)
		}
		ts.CloseClientConnections()
	}
	if tel := c.Telemetry()["r"]; tel.RoundTrips != 3 || tel.Retries != 0 {
		t.Errorf("telemetry = %+v, want 3 round trips and no retry", tel)
	}
	if got := dials.Load(); got != 3 {
		t.Errorf("opened %d connections, want 3: one per probe after each drop", got)
	}
}

// TestTransportCancelClosesConnection: cancelling a probe whose response is
// half read returns at once with the context's error, and the connection the
// read was blocked on is closed, not pooled.
func TestTransportCancelClosesConnection(t *testing.T) {
	sch, reg := testRegistry(t)
	var block atomic.Bool
	flushed := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	inner := PeerMux(reg)
	ts, dials := countingPeer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/probe" || !block.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"b":0,"row":["a1","b1"]}`+"\n")
		w.(http.Flusher).Flush()
		flushed <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	c := Dial(ts.URL, fastOptions())
	defer c.Close()
	src := c.Source(sch.Relation("r"))
	if _, err := access(src, "a1"); err != nil {
		t.Fatal(err)
	}

	block.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := source.ProbeStrings(ctx, src, [][]string{{"a1"}})
		done <- err
	}()
	<-flushed
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled probe: err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("probe still blocked a second after its context was cancelled")
	}
	if got := idleConns(c); got != 0 {
		t.Errorf("%d idle connections after the cancelled probe, want 0", got)
	}

	block.Store(false)
	if _, err := access(src, "a1"); err != nil {
		t.Fatal(err)
	}
	if got := dials.Load(); got != 2 {
		t.Errorf("opened %d connections, want 2: the cancelled one is not reused", got)
	}
}

// TestTransportPoolsOnlyCompleteResponses: a connection whose response was
// refused, cut off at the size limit or short of its done frame is closed,
// not pooled.
func TestTransportPoolsOnlyCompleteResponses(t *testing.T) {
	sch, reg := testRegistry(t)
	cases := []struct {
		name     string
		h        http.Handler
		maxBytes int64
	}{
		{"503", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "catching my breath", http.StatusServiceUnavailable)
		}), 0},
		{"over MaxResponseBytes", PeerMux(reg), 16},
		{"no done frame", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			io.WriteString(w, `{"b":0,"row":["a1","b1"]}`+"\n")
		}), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, _ := countingPeer(t, tc.h)
			opts := fastOptions()
			opts.MaxRetries = -1
			opts.MaxResponseBytes = tc.maxBytes
			c := Dial(ts.URL, opts)
			defer c.Close()
			if _, err := access(c.Source(sch.Relation("r")), "a1"); err == nil {
				t.Fatal("err = nil, want the probe to fail")
			}
			if got := idleConns(c); got != 0 {
				t.Errorf("%d idle connections, want 0", got)
			}
		})
	}
}

// TestTransportLargeResponse: a batch whose frames outgrow one write of the
// peer arrives chunked, decodes to the rows the peer holds, and leaves its
// connection reusable.
func TestTransportLargeResponse(t *testing.T) {
	sch := schema.MustParse("r^io(A, B)")
	db := storage.NewDatabase()
	tab, err := db.Create("r", 2)
	if err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, storage.Row{fmt.Sprintf("a%d", i%2), fmt.Sprintf("value-%040d", i)})
	}
	tab.InsertAll(rows)
	reg, err := source.FromDatabase(sch, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts, dials := countingPeer(t, PeerMux(reg))
	c := Dial(ts.URL, fastOptions())
	defer c.Close()

	bindings := [][]string{{"a0"}, {"missing"}, {"a1"}}
	want, err := source.ProbeStrings(context.Background(), reg.Source("r"), bindings)
	if err != nil {
		t.Fatal(err)
	}
	var frames []byte
	for i, rs := range want {
		for _, row := range rs {
			frames = appendRowFrame(frames, i, row)
		}
	}
	if len(frames) <= ndjson.Spill {
		t.Fatalf("the frames take %d bytes, not more than one write's %d", len(frames), ndjson.Spill)
	}
	for i := 0; i < 2; i++ {
		got, err := source.ProbeStrings(context.Background(), c.Source(sch.Relation("r")), bindings)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %d decoded other rows than the peer holds", i)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("two large probes opened %d connections, want 1", got)
	}
}

// TestTransportConcurrentProbes: goroutines sharing one client all get their
// own rows, and the client keeps no more than maxIdleConns idle behind them.
func TestTransportConcurrentProbes(t *testing.T) {
	sch, reg := testRegistry(t)
	ts, _ := countingPeer(t, PeerMux(reg))
	c := Dial(ts.URL, fastOptions())
	defer c.Close()
	src := c.Source(sch.Relation("r"))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key, want := "a1", 2
				if (g+i)%2 == 1 {
					key, want = "a2", 1
				}
				rows, err := access(src, key)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rows) != want {
					t.Errorf("goroutine %d probe %d: %s has rows %v, want %d", g, i, key, rows, want)
					return
				}
				for _, row := range rows {
					if row[0] != key {
						t.Errorf("goroutine %d probe %d: %s got row %v", g, i, key, row)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := idleConns(c); got < 1 || got > maxIdleConns {
		t.Errorf("%d idle connections, want 1 to %d", got, maxIdleConns)
	}
}

// TestTransportIdleCap: connections released beyond maxIdleConns are closed.
func TestTransportIdleCap(t *testing.T) {
	tr := &transport{}
	var conns []net.Conn
	for i := 0; i < maxIdleConns+8; i++ {
		a, b := net.Pipe()
		defer b.Close()
		conns = append(conns, a)
		tr.release(&conn{Conn: a, stop: func() bool { return true }}, &http.Response{}, true)
	}
	if got := len(tr.idle); got != maxIdleConns {
		t.Fatalf("%d idle connections, want %d", got, maxIdleConns)
	}
	// A pipe refuses a deadline once either end is closed.
	closed := func(a net.Conn) bool { return errors.Is(a.SetDeadline(time.Time{}), io.ErrClosedPipe) }
	for i, a := range conns {
		if got := closed(a); got != (i >= maxIdleConns) {
			t.Errorf("connection %d: closed = %v", i, got)
		}
	}
	tr.closeIdle()
	if !closed(conns[0]) {
		t.Error("closeIdle left an idle connection open")
	}
}

// TestDialRefusesNonHTTPScheme: a peer is reached over plain http:// only,
// and any other scheme fails discovery, probes and health checks with an
// error that names it.
func TestDialRefusesNonHTTPScheme(t *testing.T) {
	c := Dial("https://127.0.0.1:1", fastOptions())
	defer c.Close()
	ctx := context.Background()
	_, err := c.FetchSchema(ctx)
	if err == nil || !strings.Contains(err.Error(), `"https"`) {
		t.Errorf("FetchSchema: err = %v, want one naming the scheme", err)
	}
	if _, err := c.probe(ctx, c.relStateFor("r"), "r", [][]string{{"a1"}}); err == nil || !strings.Contains(err.Error(), `"https"`) {
		t.Errorf("Probe: err = %v, want one naming the scheme", err)
	}
	if err := c.Healthy(ctx); err == nil || !strings.Contains(err.Error(), `"https"`) {
		t.Errorf("Healthy: err = %v, want one naming the scheme", err)
	}
}

// TestRemoteRoundTripAllocBudget pins what one warm one-binding probe costs,
// both halves in this process: the client's request, response parse, frame
// decode and interning, and the peer's handler, PeerMux and http.Server. The
// trace ID rides along as it does under /query. It measures 74, and 76 to 77
// under the race detector; 75 when every binding was materialized into a
// string slice of its own, and 128 with net/http's client and the span
// attributes boxed untraced.
func TestRemoteRoundTripAllocBudget(t *testing.T) {
	sch, reg := testRegistry(t)
	ts := httptest.NewServer(PeerMux(reg))
	defer ts.Close()
	c := Dial(ts.URL, fastOptions())
	defer c.Close()
	src := c.Source(sch.Relation("r"))
	ctx := obs.ContextWithTraceID(context.Background(), obs.NewTraceID())
	bindings := sym.InternAll([]string{"a1"})
	out := make([][]storage.IRow, 1)
	run := func() {
		if err := src.Probe(ctx, bindings, out); err != nil {
			t.Fatal(err)
		}
		if len(out[0]) != 2 {
			t.Fatalf("rows = %v, want 2", out[0])
		}
	}
	run() // warm: dial the connection, fill the pools
	// The best of eight: the peer's goroutine may still be finishing the
	// previous request when a measurement starts, and the race detector
	// drops pooled buffers.
	const budget = 78
	allocs := testing.AllocsPerRun(20, run)
	for i := 1; i < 8; i++ {
		allocs = min(allocs, testing.AllocsPerRun(20, run))
	}
	if allocs > budget {
		t.Errorf("a warm remote round trip makes %.0f allocations, budget %d", allocs, budget)
	}
}

// BenchmarkRemoteRoundTrip times one batched probe through Source.Probe
// against PeerMux on loopback, both halves in this process, at one binding
// and at 64.
func BenchmarkRemoteRoundTrip(b *testing.B) {
	sch, reg := testRegistry(b)
	ts := httptest.NewServer(PeerMux(reg))
	defer ts.Close()
	c := Dial(ts.URL, fastOptions())
	defer c.Close()
	src := c.Source(sch.Relation("r"))
	for _, n := range []int{1, 64} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			bindings := make([]sym.ID, n)
			for i := range bindings {
				bindings[i] = sym.Intern([]string{"a1", "a2"}[i%2])
			}
			out := make([][]storage.IRow, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := src.Probe(context.Background(), bindings, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
