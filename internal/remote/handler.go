package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"toorjah/internal/ndjson"
	"toorjah/internal/obs"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// Server-side bounds of one /probe request; both are defensive caps, not
// tuning knobs — a well-behaved client batches far below them.
const (
	// DefaultMaxBindings caps the bindings of one probe request.
	DefaultMaxBindings = 4096
	// DefaultMaxRequestBytes caps the request body.
	DefaultMaxRequestBytes = 8 << 20
)

// Handler serves the /probe protocol: each request is one batched probe of
// a single relation, honoring the relation's binding pattern (a binding must
// cover exactly the input positions) and streaming every matching tuple back
// as NDJSON row frames. The relation's source is resolved per request, so a
// node serves what it has bound now, not what it had when the handler was
// built.
type Handler struct {
	resolve func(relation string) source.Wrapper

	// Record, when set, observes every served probe. toorjahd feeds its
	// /metrics and probe log from it.
	Record func(ProbeRecord)
}

// ProbeRecord is the accounting of one served probe: the relation, the
// number of bindings probed (accesses — one request is one round trip),
// the tuples streamed, the wall-clock serving time, and the caller's trace
// ID from the X-Toorjah-Trace header (empty when the caller sent none) —
// the peer half of a cross-node trace.
type ProbeRecord struct {
	Relation string
	Accesses int
	Tuples   int
	Elapsed  time.Duration
	TraceID  string
}

// NewHandler serves probes of the relations resolve knows — a
// source.Registry's Source, or a system's view of its bindings; nil means
// unknown relation.
func NewHandler(resolve func(relation string) source.Wrapper) *Handler {
	return &Handler{resolve: resolve}
}

// ServeHTTP answers one POST /probe.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST with a JSON probe request", http.StatusMethodNotAllowed)
		return
	}
	buf, err := ndjson.Read(http.MaxBytesReader(w, r.Body, DefaultMaxRequestBytes))
	defer buf.Free()
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("probe body exceeds %d bytes", tooLarge.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req ProbeRequest
	if err := decodeProbeRequest(buf.B, &req); err != nil {
		http.Error(w, "bad probe request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Bindings) > DefaultMaxBindings {
		http.Error(w, fmt.Sprintf("probe of %d bindings exceeds the %d-binding cap",
			len(req.Bindings), DefaultMaxBindings), http.StatusBadRequest)
		return
	}
	// The probe runs under the request context carrying the caller's trace
	// ID, so a further federated hop forwards the same ID — one query, one
	// trace, however many nodes deep.
	start := time.Now()
	traceID := r.Header.Get(obs.TraceHeader)
	ctx := r.Context()
	if traceID != "" {
		ctx = obs.ContextWithTraceID(ctx, traceID)
	}
	results, epoch, status, err := h.probe(ctx, &req)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	// No flush between bindings: the whole batch is in memory and the
	// client returns nothing before the done frame, so the response leaves
	// in one write for all but the largest probes. The request is decoded
	// into copies: its buffer is free to hold the frames.
	out := buf.B[:0]
	tuples := 0
	for i, rows := range results {
		for _, row := range rows {
			if len(out) >= ndjson.Spill {
				if _, err := w.Write(out); err != nil {
					return // peer gone mid-stream; it will retry against another replica
				}
				out = out[:0]
			}
			out = appendRowFrame(out, i, row)
		}
		tuples += len(rows)
	}
	out = appendDoneFrame(out, doneFrame{Done: true, Accesses: len(req.Bindings), Tuples: tuples, Epoch: epoch})
	buf.B = out // grown, and the pool's to keep
	if _, err := w.Write(out); err != nil {
		return // without the done frame the client treats the stream as truncated
	}
	if h.Record != nil {
		h.Record(ProbeRecord{
			Relation: req.Relation,
			Accesses: len(req.Bindings),
			Tuples:   tuples,
			Elapsed:  time.Since(start),
			TraceID:  traceID,
		})
	}
}

// probe resolves the request's relation and probes it before anything is
// streamed, so the batch succeeds whole or fails as a clean, retryable 500.
// One hold spans both: a resolver may pin its table's current version
// (System.PeerSource does), whose IDs are the reader's only while it holds,
// and the done frame's epoch is then the version the rows were read at.
func (h *Handler) probe(ctx context.Context, req *ProbeRequest) (results [][]storage.Row, epoch uint64, status int, err error) {
	hold := sym.Default.HoldFor(ctx)
	defer hold.Release()
	src := h.resolve(req.Relation)
	if src == nil {
		return nil, 0, http.StatusNotFound, errors.New("unknown relation " + req.Relation)
	}
	inputs := len(src.Relation().InputPositions())
	for i, b := range req.Bindings {
		if len(b) != inputs {
			return nil, 0, http.StatusBadRequest, fmt.Errorf("binding %d has %d values for %d input arguments of %s",
				i, len(b), inputs, req.Relation)
		}
	}
	epoch = source.EpochOf(src)
	if results, err = source.ProbeStrings(sym.WithHold(ctx), src, req.Bindings); err != nil {
		return nil, 0, http.StatusInternalServerError, err
	}
	return results, epoch, http.StatusOK, nil
}

// PeerMux is a minimal federation peer over a registry: the /probe
// endpoint, the /schema text the discovery client parses (one relation per
// line, in the paper's notation), and a /healthz liveness probe. toorjahd
// mounts the same Handler into its richer route table; PeerMux serves the
// tests, benchmarks, and embedders that need a probe-able node and nothing
// else. A /probe reads the version it resolves, as System.PeerSource's do.
func PeerMux(reg *source.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/probe", NewHandler(func(relation string) source.Wrapper {
		src := reg.Source(relation)
		if ts, ok := src.(*source.TableSource); ok {
			return ts.Snapshot() // the done frame's epoch is then its rows'
		}
		return src
	}))
	mux.HandleFunc("/schema", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var b strings.Builder
		epochs := make(map[string]uint64)
		for _, name := range reg.Names() {
			src := reg.Source(name)
			fmt.Fprintln(&b, src.Relation())
			epochs[name] = source.EpochOf(src)
		}
		AppendSchemaEpochs(&b, epochs)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.WriteString(w, "ok\n"); err != nil {
			return
		}
	})
	return mux
}
