// Package remote federates access-limited sources across toorjahd nodes:
// it turns every relation a peer serves into a source.Wrapper on this node,
// so a deployment can shard relations across machines and answer queries
// over the union (the web sources the paper targets, reached over a real
// network instead of the simulated WithLatency sleeps).
//
// The wire protocol is one operation, the probe — exactly the paper's
// access, batched: POST /probe carries a relation name and a batch of input
// bindings, and the peer streams every matching tuple back as NDJSON,
// tagged with the index of the binding it answers. A batch is N accesses in
// one round trip, so the executors' batching machinery amortises real
// network latency the same way it amortises the simulated kind.
//
// The client half (Client, Source) implements source.Wrapper over that
// protocol with the resilience a real network needs: keep-alive connections
// per peer, per-attempt timeouts, bounded retries with exponential backoff
// and jitter, a per-relation circuit breaker, and response-size limits.
// Schema discovery (FetchSchema, AttachDiscovered) builds the remote
// relations from a peer's /schema endpoint.
package remote

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"toorjah/internal/ndjson"
)

// The /probe wire format. Request: a JSON body naming the relation and the
// batch of input bindings (each parallel to the relation's input
// positions). Response: application/x-ndjson — zero or more row frames
// {"b":i,"row":[...]}, each a full tuple (inputs and outputs) matching
// binding i, terminated by a done frame {"done":true,...}. A failure before
// the first frame is an HTTP status; a stream that fails after it ends
// without a done frame.

// The frames are rendered by the append encoders below and decoded by the
// scanners beside them, not through these types, which stay as the frames'
// definition and the reference both are held to (fuzz_test.go). A scanner
// takes literally the member sequence its encoder writes, with the values
// internal/ndjson takes literally; any other request, and any other frame
// with the frames behind it, is decoded by encoding/json, as that package's
// rule has it.

// ProbeRequest is the body of a POST /probe: one batched probe of a single
// relation. Bindings holds one input binding per access, each parallel to
// the relation's input positions; a free relation probes with the single
// empty binding.
type ProbeRequest struct {
	Relation string     `json:"relation"`
	Bindings [][]string `json:"bindings"`
}

// rowFrame is one matching tuple: a full row (inputs and outputs) of the
// probed relation, answering binding B. Row is always present, so that the
// empty row of a nullary relation survives the trip.
type rowFrame struct {
	B   int      `json:"b"`
	Row []string `json:"row"`
}

// doneFrame terminates a successful stream, carrying the served accounting
// — bindings probed (always len(Bindings)) and total tuples streamed — and
// the data epoch the rows were read at (0 when the peer's source is
// unversioned): for a local table, the one version every binding of the
// probe was answered over. A client remembers the last epoch per relation: a change
// between probes means the peer's data moved, so whatever this node cached
// from earlier probes describes a stale peer snapshot (the client's cache
// keys entries by this epoch, making the stale set unreachable, and the
// change is counted in telemetry as EpochChanges).
type doneFrame struct {
	Done     bool   `json:"done"`
	Accesses int    `json:"accesses"`
	Tuples   int    `json:"tuples"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

// probeFrame is the decoding union of the two frame shapes: a frame is
// done when Done is set, and a row when Row is non-nil (JSON "row":[]
// decodes to a non-nil empty slice, so nullary rows classify correctly);
// anything else is a protocol violation.
type probeFrame struct {
	B        int      `json:"b"`
	Row      []string `json:"row"`
	Done     bool     `json:"done"`
	Accesses int      `json:"accesses"`
	Tuples   int      `json:"tuples"`
	Epoch    uint64   `json:"epoch"`
}

// appendProbeRequest appends the body of a POST /probe — byte for byte what
// json.Marshal(ProbeRequest{relation, bindings}) returns, a nil batch or
// binding as null included.
func appendProbeRequest(dst []byte, relation string, bindings [][]string) []byte {
	dst = append(dst, `{"relation":`...)
	dst = ndjson.AppendString(dst, relation)
	dst = append(dst, `,"bindings":`...)
	if bindings == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i, b := range bindings {
		if i > 0 {
			dst = append(dst, ',')
		}
		if b == nil {
			dst = append(dst, "null"...)
		} else {
			dst = ndjson.AppendStrings(dst, b)
		}
	}
	return append(dst, "]}"...)
}

// decodeProbeRequest decodes the body of a POST /probe into a zero req as
// json.Unmarshal(body, req) does: a body that is what appendProbeRequest
// renders, whitespace allowed behind it, is scanned.
func decodeProbeRequest(body []byte, req *ProbeRequest) error {
	sc := ndjson.Scanner{B: body}
	sc.Expect(`{"relation":`)
	req.Relation = sc.Str()
	sc.Expect(`,"bindings":[`)
	req.Bindings = [][]string{}
	if !sc.Has("]") {
		for more := true; more; more = sc.Has(",") {
			req.Bindings = append(req.Bindings, sc.Strings())
		}
		sc.Expect("]")
	}
	sc.Expect("}")
	if !sc.Failed() && sc.End() == io.EOF {
		return nil
	}
	*req = ProbeRequest{}
	return json.Unmarshal(body, req)
}

// appendRowFrame appends one row frame — byte for byte what
// json.Encoder.Encode(rowFrame{b, row}) writes, newline included, for a
// non-nil row; a nil one travels as [] too, so that the empty row of a
// nullary relation is always present.
func appendRowFrame(dst []byte, b int, row []string) []byte {
	dst = append(dst, `{"b":`...)
	dst = strconv.AppendInt(dst, int64(b), 10)
	dst = append(dst, `,"row":`...)
	dst = ndjson.AppendStrings(dst, row)
	return append(dst, "}\n"...)
}

// appendDoneFrame appends the frame that ends a stream — byte for byte what
// json.Encoder.Encode(d) writes, newline included.
func appendDoneFrame(dst []byte, d doneFrame) []byte {
	dst = append(dst, `{"done":`...)
	dst = strconv.AppendBool(dst, d.Done)
	dst = append(dst, `,"accesses":`...)
	dst = strconv.AppendInt(dst, int64(d.Accesses), 10)
	dst = append(dst, `,"tuples":`...)
	dst = strconv.AppendInt(dst, int64(d.Tuples), 10)
	if d.Epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, d.Epoch, 10)
	}
	return append(dst, "}\n"...)
}

// decodeFrame is json.Decoder.Decode(f) for a zero f over the stream sc
// holds, read to its end: io.EOF when nothing but whitespace is left of a
// stream that ended cleanly. A row frame as appendRowFrame renders it and a
// done frame as appendDoneFrame does are scanned.
func decodeFrame(sc *ndjson.Scanner, f *probeFrame) error {
	if err := sc.End(); err != nil {
		return err
	}
	at := sc.I
	switch {
	case sc.Has(`{"b":`):
		f.B = int(sc.Uint())
		sc.Expect(`,"row":`)
		f.Row = sc.Strings()
	default:
		sc.Expect(`{"done":true,"accesses":`)
		f.Done = true
		f.Accesses = int(sc.Uint())
		sc.Expect(`,"tuples":`)
		f.Tuples = int(sc.Uint())
		if sc.Has(`,"epoch":`) {
			f.Epoch = sc.Uint()
		}
	}
	if sc.Expect("}"); sc.Failed() {
		*f = probeFrame{}
		return sc.Fallback(at, f)
	}
	return nil
}

// SchemaEpochPrefix starts the per-relation epoch lines a peer appends to
// its /schema text: "# epoch rev 3". The lines ride the schema's comment
// syntax, so schema.Parse ignores them and pre-epoch clients interoperate;
// ParseSchemaEpochs extracts them on the client side, seeding the epoch
// telemetry (and the epoch-keyed cache identity) before the first probe.
const SchemaEpochPrefix = "# epoch "

// AppendSchemaEpochs appends one "# epoch name N" line per versioned
// relation (epoch > 0) to a /schema response body, in sorted name order.
func AppendSchemaEpochs(b *strings.Builder, epochs map[string]uint64) {
	names := make([]string, 0, len(epochs))
	for name, e := range epochs {
		if e > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b, "%s%s %d\n", SchemaEpochPrefix, name, epochs[name])
	}
}

// ParseSchemaEpochs extracts the per-relation epoch lines from a /schema
// body; unparseable lines are skipped (they are comments to everyone else).
func ParseSchemaEpochs(text string) map[string]uint64 {
	out := make(map[string]uint64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, SchemaEpochPrefix) {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, SchemaEpochPrefix))
		if len(fields) != 2 {
			continue
		}
		e, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil || e == 0 {
			continue
		}
		out[fields[0]] = e
	}
	return out
}
