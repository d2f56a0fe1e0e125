package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"toorjah/internal/ndjson"
	"toorjah/internal/storage"
)

// TestProbeSeams runs every seam body and stream through the differential
// checks the fuzz targets make, the streams cut at every byte.
func TestProbeSeams(t *testing.T) {
	for _, body := range probeRequestSeams {
		var got, want ProbeRequest
		gotErr, wantErr := decodeProbeRequest([]byte(body), &got), json.Unmarshal([]byte(body), &want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) || !reflect.DeepEqual(got, want) {
			t.Errorf("request %q:\n  scanner:   %#v, %v\n  Unmarshal: %#v, %v", body, got, gotErr, want, wantErr)
		}
	}
	for _, stream := range probeStreamSeams {
		checkFramesAgainstDecoder(t, stream, nil)
		for cut := 0; cut <= len(stream); cut++ {
			checkFramesAgainstDecoder(t, stream[:cut], errors.New("cut"))
		}
	}
}

// servedBy dials a peer that answers every /probe with the given lines.
func servedBy(t *testing.T, opts Options, lines ...string) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if _, err := io.WriteString(w, strings.Join(lines, "\n")+"\n"); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(ts.Close)
	c := Dial(ts.URL, opts)
	t.Cleanup(c.Close)
	return c
}

// TestOlderPeerFramesStillLand: frames the scanner does not take literally —
// members reordered, members it does not know, spacing, escapes — are
// decoded by encoding/json between frames that are, and the rows land.
func TestOlderPeerFramesStillLand(t *testing.T) {
	c := servedBy(t, fastOptions(),
		`{"row":["a1","b1"],"b":0,"shard":3}`,
		`{"b":0,"row":["a1","b2"]}`,
		`{ "b": 0, "row": ["a1", "caf\u00e9"] }`,
		`{"tuples":3,"accesses":1,"done":true,"epoch":9,"took_ms":0.5}`)
	rows, err := c.probe(context.Background(), c.relStateFor("r"), "r", [][]string{{"a1"}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]storage.Row{{{"a1", "b1"}, {"a1", "b2"}, {"a1", "café"}}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %v, want %v", rows, want)
	}
	if tel := c.Telemetry()["r"]; tel.Epoch != 9 || tel.RoundTrips != 1 {
		t.Errorf("telemetry = %+v, want epoch 9 after one round trip", tel)
	}
}

// TestFrameLongerThanTheReadBuffer: a frame many times the size a pooled
// buffer starts with — and a stream of many — arrives whole.
func TestFrameLongerThanTheReadBuffer(t *testing.T) {
	long := strings.Repeat("x", 100<<10)
	lines := []string{`{"b":0,"row":["a1","` + long + `"]}`}
	for i := 0; i < 3000; i++ {
		lines = append(lines, `{"b":0,"row":["a1","b1"]}`)
	}
	lines = append(lines, `{"done":true,"accesses":1,"tuples":3001}`)
	c := servedBy(t, fastOptions(), lines...)
	rows, err := c.probe(context.Background(), c.relStateFor("r"), "r", [][]string{{"a1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0]) != 3001 || rows[0][0][1] != long || rows[0][3000][1] != "b1" {
		t.Errorf("got %d rows, first value of %d bytes", len(rows[0]), len(rows[0][0][1]))
	}
}

// TestStreamEndings: how a stream that never reaches a done frame fails
// decides whether it is tried again.
func TestStreamEndings(t *testing.T) {
	small := fastOptions()
	small.MaxResponseBytes = 40
	for _, tc := range []struct {
		name       string
		opts       Options
		lines      []string
		roundTrips int // 3 = retried twice, 1 = final
		errHas     string
	}{
		{"no done frame", fastOptions(), []string{`{"b":0,"row":["a1","b1"]}`}, 3, "without a done frame"},
		{"cut mid-frame", fastOptions(), []string{`{"b":0,"row":["a1","b1"]}`, `{"b":0,"row":["a1",`}, 3, "bad probe frame"},
		{"in-band error", fastOptions(), []string{`{"error":"index unavailable"}`}, 1, "unclassifiable"},
		{"done frame miscounts", fastOptions(), []string{`{"b":0,"row":["a1","b1"]}`, `{"done":true,"accesses":1,"tuples":2}`}, 3, "carried 1 tuples"},
		{"response limit tripped", small, []string{`{"b":0,"row":["a1","b1"]}`, `{"b":0,"row":["a1","b2"]}`, `{"done":true,"accesses":1,"tuples":2}`}, 1, "exceeds 40 bytes"},
		{"bad frame before the limit", small, []string{`{"b":0,"row":[a1]}`, `{"b":0,"row":["a1","b2"]}`, `{"done":true,"accesses":1,"tuples":1}`}, 3, "bad probe frame"},
		{"done frame within the limit", small, []string{`{"done":true,"accesses":1,"tuples":0}`, strings.Repeat(" ", 100)}, 1, ""},
		{"row for no binding", fastOptions(), []string{`{"b":1,"row":["a1","b1"]}`}, 1, "binding 1 of a 1-binding probe"},
		{"unclassifiable frame", fastOptions(), []string{`{"b":0}`}, 1, "unclassifiable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := servedBy(t, tc.opts, tc.lines...)
			_, err := c.probe(context.Background(), c.relStateFor("r"), "r", [][]string{{"a1"}})
			if tc.errHas == "" && err != nil || tc.errHas != "" && (err == nil || !strings.Contains(err.Error(), tc.errHas)) {
				t.Errorf("err = %v, want one holding %q", err, tc.errHas)
			}
			if tel := c.Telemetry()["r"]; tel.RoundTrips != tc.roundTrips {
				t.Errorf("%d round trips, want %d", tel.RoundTrips, tc.roundTrips)
			}
		})
	}
}

// TestHandlerWire: what the handler writes for a probe is, byte for byte,
// what json.Encoder wrote for it — over a response that fits one write and
// one that spills.
func TestHandlerWire(t *testing.T) {
	_, reg := testRegistry(t)
	big := make([]storage.Row, 3000)
	for i := range big {
		big[i] = storage.Row{"a9", "value-" + strconv.Itoa(i)}
	}
	reg.Source("r").(interface{ Table() *storage.Table }).Table().InsertAll(big)
	h := NewHandler(reg.Source)
	for _, binding := range []string{"a1", "a9", "absent"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/probe",
			strings.NewReader(`{"relation":"r","bindings":[["`+binding+`"],["a2"]]}`)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", binding, w.Code, w.Body)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		sc := ndjson.Scanner{B: w.Body.Bytes()}
		tuples := 0
		for f := (probeFrame{}); ; f = (probeFrame{}) {
			if err := decodeFrame(&sc, &f); err != nil {
				t.Fatalf("%s: stream ends with %v before a done frame", binding, err)
			}
			if f.Done {
				if err := enc.Encode(doneFrame{Done: true, Accesses: 2, Tuples: tuples, Epoch: f.Epoch}); err != nil {
					t.Fatal(err)
				}
				break
			}
			tuples++
			if err := enc.Encode(rowFrame{B: f.B, Row: f.Row}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s: the response is not what json.Encoder renders from its frames", binding)
		}
		if binding == "a9" && (tuples != 3001 || w.Body.Len() < 2*ndjson.Spill) {
			t.Errorf("a9: %d tuples in %d bytes, want a response of several writes", tuples, w.Body.Len())
		}
	}
}

// TestEpochTakesNoLock: Source.Epoch is read on every cached probe, so it is
// an atomic load of state the source resolved once — it allocates nothing
// and does not wait for the client-wide mutex.
func TestEpochTakesNoLock(t *testing.T) {
	sch, _ := testRegistry(t)
	c := Dial("http://127.0.0.1:0", fastOptions())
	defer c.Close()
	src := c.Source(sch.Relation("r"))
	c.relStateFor("r").noteEpoch(7)

	c.mu.Lock() // as Telemetry holds it while it snapshots
	got := make(chan uint64, 1)
	go func() { got <- src.Epoch() }()
	select {
	case e := <-got:
		if e != 7 {
			t.Errorf("Epoch() = %d, want 7", e)
		}
	case <-time.After(2 * time.Second):
		t.Error("Epoch() waits for the client's mutex")
	}
	c.mu.Unlock()

	if n := testing.AllocsPerRun(100, func() { src.Epoch() }); n != 0 {
		t.Errorf("Epoch() allocates %v times a call", n)
	}
}

// BenchmarkProbeCodec is the remote codec on its own: one probe's request
// and its two-row response, each encoded and decoded by this package's
// codec and by the encoding/json calls it replaced — over plain ASCII values,
// the case the codec is built for, and over keys that hold UTF-8 (scanned,
// but rendered by json.Marshal) or need an escape (encoding/json both ways).
func BenchmarkProbeCodec(b *testing.B) {
	for _, kind := range []struct{ name, key string }{{"ascii", "k104729"}, {"utf8", "k104729é"}, {"escaped", `k"104729`}} {
		bindings := [][]string{{kind.key}}
		rows := []storage.Row{{kind.key, "t117_1", "c114"}, {kind.key, "t117_2", "c9"}}
		done := doneFrame{Done: true, Accesses: 1, Tuples: 2, Epoch: 3}

		b.Run(kind.name+"/request/append+scan", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = appendProbeRequest(buf[:0], "item", bindings)
				var req ProbeRequest
				if err := decodeProbeRequest(buf, &req); err != nil || !reflect.DeepEqual(req.Bindings, bindings) {
					b.Fatal(req, err)
				}
			}
		})
		b.Run(kind.name+"/request/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, err := json.Marshal(ProbeRequest{Relation: "item", Bindings: bindings})
				if err != nil {
					b.Fatal(err)
				}
				var req ProbeRequest
				if err := json.Unmarshal(buf, &req); err != nil || !reflect.DeepEqual(req.Bindings, bindings) {
					b.Fatal(req, err)
				}
			}
		})
		b.Run(kind.name+"/response/append+scan", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = appendDoneFrame(appendRowFrame(appendRowFrame(buf[:0], 0, rows[0]), 0, rows[1]), done)
				sc := ndjson.Scanner{B: buf}
				var f probeFrame // not the loop's: one that escapes is allocated per iteration
				for !f.Done {
					f = probeFrame{}
					if err := decodeFrame(&sc, &f); err != nil || !f.Done && f.Row[0] != kind.key {
						b.Fatal(f, err)
					}
				}
			}
		})
		b.Run(kind.name+"/response/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				enc := json.NewEncoder(&buf)
				for _, row := range rows {
					if err := enc.Encode(rowFrame{B: 0, Row: row}); err != nil {
						b.Fatal(err)
					}
				}
				if err := enc.Encode(done); err != nil {
					b.Fatal(err)
				}
				dec := json.NewDecoder(&buf)
				var f probeFrame
				for !f.Done {
					f = probeFrame{}
					if err := dec.Decode(&f); err != nil || !f.Done && f.Row[0] != kind.key {
						b.Fatal(f, err)
					}
				}
			}
		})
	}
}
