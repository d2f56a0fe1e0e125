package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"toorjah/internal/ndjson"
	"toorjah/internal/obs"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// Options tunes a remote-source client; the zero value means every default
// below. Where zero is a meaningful setting (MaxRetries), negative selects
// it, following the repo's MaxBatch convention.
type Options struct {
	// Timeout bounds each probe attempt (connection + full response
	// stream). Default 10s.
	Timeout time.Duration
	// MaxRetries is how many times a failed probe is retried after the
	// first attempt. 0 means the default (2); negative disables retries.
	MaxRetries int
	// RetryBase and RetryMax shape the exponential backoff between
	// retries: attempt n waits RetryBase<<n, capped at RetryMax, jittered
	// to [wait/2, wait] so synchronized clients do not stampede a
	// recovering peer. Defaults 50ms and 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// BreakerThreshold consecutive probe failures of one relation open its
	// circuit breaker for BreakerCooldown; while open, probes fail fast
	// with ErrBreakerOpen, and the first probe after the cooldown is the
	// half-open trial. Defaults 5 and 10s; a negative threshold disables
	// the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxResponseBytes caps one probe response stream. Default 32 MiB.
	MaxResponseBytes int64
}

// withDefaults resolves the zero values.
func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Second
	}
	if o.MaxResponseBytes <= 0 {
		o.MaxResponseBytes = 32 << 20
	}
	return o
}

// Telemetry is the accumulated accounting of one relation's probes against
// one peer: HTTP round trips attempted (including retries), retries among
// them, times the circuit breaker opened, cumulative wall-clock probe
// latency, and the peer's data-version tracking — the relation's last
// observed epoch and how many times it changed between probes. A non-zero
// EpochChanges means the peer ingested new data while this node was
// probing it: everything cached locally from the older probes describes a
// stale peer snapshot (the epoch-keyed cache already stopped serving it).
type Telemetry struct {
	RoundTrips   int     `json:"round_trips"`
	Retries      int     `json:"retries"`
	BreakerOpens int     `json:"breaker_opens"`
	LatencyMS    float64 `json:"latency_ms"`
	Epoch        uint64  `json:"epoch,omitempty"`
	EpochChanges int     `json:"epoch_changes,omitempty"`
	// BreakerState is the relation's circuit at snapshot time: "closed",
	// "open" or "half-open".
	BreakerState string `json:"breaker_state,omitempty"`
}

// relState is the per-relation resilience state of a client. The counters
// are atomics, not a mutex block: the epoch is read on the hot path of
// every cached probe (Source.Epoch keys the cross-query cache), the
// accounting is written on every round trip, and /metrics snapshots them
// from other goroutines — lock-free loads keep the probe
// path allocation- and contention-free and make torn reads impossible by
// construction.
type relState struct {
	br *breaker

	roundTrips   atomic.Int64
	retries      atomic.Int64
	latencyNS    atomic.Int64
	lastEpoch    atomic.Uint64
	epochChanges atomic.Int64
}

// noteEpoch records the relation's data epoch as observed in a done frame
// (or seeded from /schema), counting a change from a previously observed
// epoch as one stale-snapshot detection. The CAS loop makes the
// change-detection exact under concurrent probes: every distinct
// transition is counted once, however many goroutines observe it.
func (st *relState) noteEpoch(e uint64) {
	if e == 0 {
		return
	}
	for {
		old := st.lastEpoch.Load()
		if old == e {
			return
		}
		if st.lastEpoch.CompareAndSwap(old, e) {
			if old != 0 {
				st.epochChanges.Add(1)
			}
			return
		}
	}
}

// Client speaks the probe protocol to one peer. It owns the keep-alive
// connections to the peer, shared by every relation sourced from it, and
// keeps per-relation circuit breakers and telemetry. A Client is safe for
// concurrent use; the executors probe through it from many goroutines.
type Client struct {
	base string
	tr   *transport
	err  error // why base cannot be spoken to; every request fails with it
	opts Options

	mu   sync.Mutex
	rels map[string]*relState
}

// Dial prepares a client for the peer at base (e.g. "http://host:8344").
// No connection is made until the first request; a base that is not an
// http:// URL fails every request, FetchSchema's included.
func Dial(base string, opts Options) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		opts: opts.withDefaults(),
		rels: make(map[string]*relState),
	}
	if c.tr, c.err = newTransport(c.base); c.err != nil {
		c.tr = &transport{}
	}
	return c
}

// Base returns the peer's base URL.
func (c *Client) Base() string { return c.base }

// Close closes the idle connections to the peer.
func (c *Client) Close() { c.tr.closeIdle() }

// relStateFor returns (creating on first use) the relation's state.
func (c *Client) relStateFor(relation string) *relState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.rels[relation]
	if !ok {
		threshold := c.opts.BreakerThreshold
		if threshold < 0 {
			threshold = int(^uint(0) >> 1) // disabled: never trips
		}
		st = &relState{br: newBreaker(threshold, c.opts.BreakerCooldown)}
		c.rels[relation] = st
	}
	return st
}

// Telemetry snapshots the per-relation probe accounting.
func (c *Client) Telemetry() map[string]Telemetry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Telemetry, len(c.rels))
	for name, st := range c.rels {
		out[name] = Telemetry{
			RoundTrips:   int(st.roundTrips.Load()),
			Retries:      int(st.retries.Load()),
			BreakerOpens: st.br.openCount(),
			LatencyMS:    float64(st.latencyNS.Load()) / 1e6,
			Epoch:        st.lastEpoch.Load(),
			EpochChanges: int(st.epochChanges.Load()),
			BreakerState: st.br.stateName(),
		}
	}
	return out
}

// get fetches path from the peer within one attempt's timeout and returns
// the response with up to limit bytes of its body.
func (c *Client) get(ctx context.Context, path string, limit int64) (*http.Response, []byte, error) {
	if c.err != nil {
		return nil, nil, c.err
	}
	ctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	cn, resp, err := c.tr.roundTrip(ctx, c.tr.appendRequest(nil, path, "", nil))
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	// A read that stopped short of the limit without an error reached the end.
	c.tr.release(cn, resp, err == nil && int64(len(body)) < limit)
	if err != nil {
		return nil, nil, ctxErr(ctx, err)
	}
	return resp, body, nil
}

// Healthy probes the peer's /healthz; nil means reachable.
func (c *Client) Healthy(ctx context.Context) error {
	resp, _, err := c.get(ctx, "/healthz", 1<<10)
	if err != nil {
		return fmt.Errorf("%s/healthz: %w", c.base, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s/healthz: %s", c.base, resp.Status)
	}
	return nil
}

// FetchSchema discovers the peer's relations: it reads /schema (the paper's
// textual notation, one relation per line — exactly what toorjahd serves)
// and parses it.
func (c *Client) FetchSchema(ctx context.Context) (*schema.Schema, error) {
	resp, text, err := c.get(ctx, "/schema", 1<<20)
	if err != nil {
		return nil, fmt.Errorf("remote %s: schema discovery: %w", c.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("remote %s: schema discovery: %s: %s",
			c.base, resp.Status, bytes.TrimSpace(text))
	}
	sch, err := schema.Parse(string(text))
	if err != nil {
		return nil, fmt.Errorf("remote %s: bad /schema: %w", c.base, err)
	}
	// Seed the per-relation epoch tracking from the advertised "# epoch"
	// lines, so the epoch-keyed cache identity is right from the first
	// probe (peers without the lines stay unversioned until a done frame).
	for rel, e := range ParseSchemaEpochs(string(text)) {
		c.relStateFor(rel).noteEpoch(e)
	}
	return sch, nil
}

// errResponseTooLarge aborts a stream that exceeds MaxResponseBytes.
var errResponseTooLarge = errors.New("remote: probe response too large")

// limitedReader is io.LimitReader that fails at the limit, with an error the
// decoder that runs into it passes on, so that it can be classified as
// non-retryable.
type limitedReader struct {
	r io.Reader
	n int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, errResponseTooLarge
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// Probe serves one batched probe of a relation: a single HTTP round trip
// for the whole batch, retried with exponential backoff and jitter on
// retryable failures (network errors, timeouts, 5xx, 408/429, truncated
// streams), failing fast while the relation's circuit breaker is open.
// Result i holds exactly the rows matching bindings[i].
func (c *Client) Probe(ctx context.Context, relation string, bindings [][]string) ([][]storage.Row, error) {
	return c.probe(ctx, c.relStateFor(relation), relation, bindings)
}

// probe is Probe for a caller that holds the relation's state.
func (c *Client) probe(ctx context.Context, st *relState, relation string, bindings [][]string) ([][]storage.Row, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.err != nil {
		return nil, fmt.Errorf("remote %s: relation %s: %w", c.base, relation, c.err)
	}
	if !st.br.allow() {
		return nil, fmt.Errorf("remote %s: relation %s: %w", c.base, relation, ErrBreakerOpen)
	}
	// The request, head and body, is rendered once for all attempts; an
	// attempt has finished writing it when it returns, so the buffer can be
	// a pooled one. The body is rendered first, since the head counts its
	// bytes, and copied in behind the head. The query's trace ID travels to
	// the peer, so the peer's probe log carries the same ID as the query's
	// trace — one query, one ID, across nodes.
	buf := ndjson.Get()
	defer buf.Free()
	buf.B = appendProbeRequest(buf.B, relation, bindings)
	n := len(buf.B)
	buf.B = c.tr.appendRequest(buf.B, "/probe", obs.TraceIDFromContext(ctx), buf.B[:n])
	req := buf.B[n:]
	var lastErr error
	for attempt := 0; ; attempt++ {
		start := time.Now()
		rows, retryable, err := c.probeOnce(ctx, st, req, len(bindings))
		st.roundTrips.Add(1)
		st.latencyNS.Add(int64(time.Since(start)))
		if err == nil {
			st.br.success()
			return rows, nil
		}
		st.br.failure()
		lastErr = fmt.Errorf("remote %s: relation %s: %w", c.base, relation, err)
		if !retryable || attempt >= c.opts.MaxRetries {
			break
		}
		if err := c.backoff(ctx, attempt); err != nil {
			break // cancelled mid-backoff; lastErr is the more informative error
		}
		// The breaker may have opened on this very failure streak; stop
		// stacking retries against a tripped circuit. (allow also admits
		// the half-open trial when the cooldown is already over.)
		if !st.br.allow() {
			break
		}
		st.retries.Add(1)
	}
	return nil, lastErr
}

// backoff sleeps the jittered exponential delay of the given attempt,
// returning early if ctx is done.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	wait := c.opts.RetryBase << uint(attempt)
	if wait <= 0 || wait > c.opts.RetryMax {
		wait = c.opts.RetryMax
	}
	// Jitter to [wait/2, wait]: enough spread to desynchronize peers
	// without losing the exponential shape.
	wait = wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1))
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// probeOnce is one HTTP round trip: write the request, read the NDJSON
// frames back, and classify any failure as retryable or not.
func (c *Client) probeOnce(ctx context.Context, st *relState, req []byte, bindings int) (_ [][]storage.Row, retryable bool, _ error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	cn, resp, err := c.tr.roundTrip(ctx, req)
	if err != nil {
		return nil, true, err // connection refused, reset, timeout: all retryable
	}
	read := false // whether the connection may serve the next request
	defer func() { c.tr.release(cn, resp, read) }()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		retry := resp.StatusCode >= 500 ||
			resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusRequestTimeout
		return nil, retry, fmt.Errorf("probe: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}

	// Nothing is returned before the done frame, so the stream is read to
	// its end — or to where it fails — and its frames decoded in the order
	// they came: what the read ended with matters only to a stream whose
	// frames end without a done frame. The rows are copies; the buffer goes
	// back to the pool.
	lr := &limitedReader{r: resp.Body, n: c.opts.MaxResponseBytes}
	buf, readErr := ndjson.Read(lr)
	defer buf.Free()
	if readErr != nil {
		readErr = ctxErr(ctx, readErr)
	}
	out := make([][]storage.Row, bindings)
	var (
		sc     = ndjson.Scanner{B: buf.B, Err: readErr}
		f      probeFrame // one for the stream: what a decoder is handed lives on the heap
		tuples int
	)
	for {
		f = probeFrame{}
		err := decodeFrame(&sc, &f)
		if err == io.EOF {
			// The peer died mid-stream; a retry re-probes from scratch
			// (probes are idempotent reads).
			return nil, true, errors.New("probe stream ended without a done frame")
		}
		if err != nil {
			if errors.Is(err, errResponseTooLarge) { // the decoder reached the cut, not merely the read
				return nil, false, fmt.Errorf("probe response exceeds %d bytes", c.opts.MaxResponseBytes)
			}
			return nil, true, fmt.Errorf("bad probe frame: %w", err)
		}
		switch {
		case f.Error != "":
			return nil, true, fmt.Errorf("peer: %s", f.Error)
		case f.Done:
			if f.Tuples != tuples {
				return nil, true, fmt.Errorf("probe stream carried %d tuples, done frame says %d", tuples, f.Tuples)
			}
			st.noteEpoch(f.Epoch)
			read = readErr == nil
			return out, false, nil
		case f.Row != nil:
			if f.B < 0 || f.B >= len(out) {
				return nil, false, fmt.Errorf("row frame for binding %d of a %d-binding probe", f.B, len(out))
			}
			out[f.B] = append(out[f.B], storage.Row(f.Row))
			tuples++
		default:
			return nil, false, errors.New("unclassifiable probe frame")
		}
	}
}

// Source is one remote relation as a data source: a source.Wrapper probing
// the relation on the client's peer, a batch riding a single HTTP round
// trip. All sources of one client share its connection pool; each relation
// has its own breaker and telemetry.
type Source struct {
	c   *Client
	rel *schema.Relation
	st  *relState // resolved once: Epoch is read on every cached probe
}

// Source binds a relation schema to the peer. The relation must match the
// peer's own declaration — AttachDiscovered verifies that against the schema
// FetchSchema discovered; this constructor trusts the caller.
func (c *Client) Source(rel *schema.Relation) *Source {
	return &Source{c: c, rel: rel, st: c.relStateFor(rel.Name)}
}

// Relation returns the relation schema this source serves.
func (s *Source) Relation() *schema.Relation { return s.rel }

// Epoch returns the peer relation's last observed data epoch (0 until the
// peer advertises one via /schema or a probe's done frame). The local
// cross-query cache keys this source's entries by it, so when the peer
// ingests new data, every entry cached from the older version stops
// serving as soon as the change is observed.
func (s *Source) Epoch() uint64 {
	return s.st.lastEpoch.Load()
}

// Probe probes the relation with the whole batch in one HTTP round trip,
// under the request context: the caller's cancellation stops retries and
// in-flight round trips, the trace ID (when present) travels to the peer in
// the X-Toorjah-Trace header, and a "remote-probe" span records the round
// trip when the context carries a trace.
//
// This is the remote-decode boundary of the engine. The probe protocol
// speaks NDJSON strings, so the block materializes into wire form and
// every decoded row interns here; the freshly decoded strings become
// garbage immediately instead of living on in caches and relations, and
// everything above this source (cache, counters, executors) stays on
// integer tuples. The rows intern unpinned, under a hold joined for the
// decode: they are the caller's while its own hold lasts.
func (s *Source) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	if err := source.CheckSlots(s.rel, ids, out); err != nil {
		return err
	}
	inputs := s.rel.InputPositions()
	w := len(inputs)
	strs, wire := sym.Strs(ids), make([][]string, len(out))
	for i := range wire {
		wire[i] = strs[i*w : i*w+w]
	}
	ctx, sp := obs.StartSpan(ctx, "remote-probe")
	if sp != nil { // boxing an attribute allocates, which an untraced probe must not
		sp.SetAttr("peer", s.c.base)
		sp.SetAttr("relation", s.rel.Name)
		sp.SetAttr("accesses", len(out))
		if id := obs.TraceIDFromContext(ctx); id != "" {
			sp.SetAttr("trace_id", id)
		}
	}
	defer sp.End()
	results, err := s.c.probe(ctx, s.st, s.rel.Name, wire)
	if err != nil {
		if sp != nil {
			sp.SetAttr("error", err.Error())
		}
		return err
	}
	// Soundness guard: every returned row must have the relation's arity
	// and agree with its binding on the input positions. A misconfigured or
	// buggy peer surfaces as an error, never as wrong answers.
	h := sym.Default.Join()
	defer h.Release()
	for i, rows := range results {
		for _, row := range rows {
			if len(row) != s.rel.Arity() {
				return fmt.Errorf("remote source %s: peer %s returned a row of arity %d, want %d",
					s.rel.Name, s.c.base, len(row), s.rel.Arity())
			}
			for k, pos := range inputs {
				if row[pos] != wire[i][k] {
					return fmt.Errorf("remote source %s: peer %s returned a row not matching its binding at position %d",
						s.rel.Name, s.c.base, pos+1)
				}
			}
		}
		out[i] = nil
		if len(rows) > 0 {
			out[i] = storage.InternRows(h, rows)
		}
	}
	return nil
}
