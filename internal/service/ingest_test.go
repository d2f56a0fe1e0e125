package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"toorjah"
	"toorjah/internal/schema"
	"toorjah/internal/sym"
)

// TestAppendIngestAckMatchesEncoder: the /ingest ack leaves byte for byte as
// json.Encoder.Encode(ingestResponse{…}) wrote it.
func TestAppendIngestAckMatchesEncoder(t *testing.T) {
	cases := map[string]ingestResponse{
		"zero value":  {},
		"insert":      {Relation: "live", Op: "insert", Rows: 64, Applied: 64, Epoch: 12, ElapsedMS: 0.031},
		"delete":      {Relation: "rev", Op: "delete", Rows: 3, Applied: 0, Epoch: 1, ElapsedMS: 17},
		"large":       {Relation: "r", Op: "insert", Rows: math.MaxInt64, Applied: math.MaxInt32, Epoch: math.MaxUint64, ElapsedMS: 86400000.5},
		"tiny elapse": {Relation: "r", Op: "insert", ElapsedMS: 1e-7},
		"escaped":     {Relation: "<\"r\">\u2028é\xff", Op: "a&b"},
	}
	prefix := []byte("kept")
	for name, a := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(a); err != nil {
			t.Fatal(err)
		}
		got := appendIngestAck(append([]byte(nil), prefix...), &a)
		if !bytes.HasPrefix(got, prefix) {
			t.Errorf("%s: appending overwrote what the buffer held: %q", name, got)
		}
		if got = got[len(prefix):]; !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want.Bytes())
		}
	}
}

// liveServer is bench's ingest-rw node without the log: one relation,
// written and read through Handler().
func liveServer(t testing.TB) (*toorjah.System, *Server) {
	t.Helper()
	sys := toorjah.NewSystem(schema.MustParse("live^io(K, V)"), toorjah.WithCache(toorjah.CacheOptions{}))
	if err := sys.BindRows("live"); err != nil {
		t.Fatal(err)
	}
	return sys, New(sys, toorjah.Options{})
}

func postIngest(h http.Handler, target, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return w
}

// TestIngestEscapedNULIsRefused: the scanner leaves a value with an escape to
// encoding/json, so a \u0000 still decodes to a NUL and still reaches
// validateRows — 400, nothing applied, the value not interned.
func TestIngestEscapedNULIsRefused(t *testing.T) {
	sys, srv := liveServer(t)
	h := srv.Handler()
	if w := postIngest(h, "/ingest?relation=live", `["k1","v1"]`+"\n"); w.Code != http.StatusOK {
		t.Fatalf("plain ingest: status %d: %s", w.Code, w.Body)
	}
	epoch := sys.RelationEpoch("live")
	for _, op := range []string{"insert", "delete"} {
		w := postIngest(h, "/ingest?relation=live&op="+op, `["refused-k","refused-v"]`+"\n"+`["k1","nul-a\u0000b"]`+"\n")
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "NUL") {
			t.Errorf("%s: status %d, body %q, want 400 naming the NUL", op, w.Code, w.Body)
		}
	}
	if got := sys.RelationEpoch("live"); got != epoch {
		t.Errorf("epoch %d → %d: a refused batch was applied", epoch, got)
	}
	if rows := sys.DataSnapshot()["live"].Rows; len(rows) != 1 {
		t.Errorf("rows = %v, want only the first batch's", rows)
	}
	for _, v := range []string{"nul-a\x00b", "refused-k", "refused-v"} {
		if _, ok := sym.Default.Lookup(v); ok {
			t.Errorf("%q was interned by a refused batch", v)
		}
	}
}

// TestIngestBodyCutMidRow: a body that http.MaxBytesReader cuts inside a row
// is a 413 — also when the rows before the cut were fine — and applies
// nothing; a malformed row before the cut is the 400 it was.
func TestIngestBodyCutMidRow(t *testing.T) {
	sys, srv := liveServer(t)
	srv.maxIngestBytes = 40
	h := srv.Handler()
	rows := strings.Repeat(`["k1","v1"]`+"\n", 5) // the limit falls inside the fourth row
	if w := postIngest(h, "/ingest?relation=live", rows); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("cut mid-row: status %d, want 413: %s", w.Code, w.Body)
	}
	if w := postIngest(h, "/ingest?relation=live", `["k1"]`+"\n"+rows); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "row 1 has arity 1") {
		t.Errorf("bad row before the cut: status %d, body %q, want 400 for row 1", w.Code, w.Body)
	}
	if w := postIngest(h, "/ingest?relation=live", strings.Repeat(`["k1","v1"]`+"\n", 3)); w.Code != http.StatusOK {
		t.Errorf("body under the limit: status %d: %s", w.Code, w.Body)
	}
	if got := sys.RelationEpoch("live"); got != 2 {
		t.Errorf("epoch = %d, want 2: exactly one batch applied", got)
	}
}

// BenchmarkIngestRound is ingest-rw's write half without the network and
// without the log: one round inserts a fresh batch of 64 two-value rows and
// deletes the oldest batch, keeping a window of 64 batches live, through
// Handler() into memory — body read, row decode, validation, interning,
// copy-on-write publish, ack. The sub-benchmarks differ in what the values
// are made of, which decides who decodes them: plain ASCII and UTF-8 are the
// scanner's, an escape hands the body from that row on to encoding/json.
func BenchmarkIngestRound(b *testing.B) {
	const batchRows, window, keys = 64, 64, 256
	for _, kind := range []struct {
		name   string
		suffix func(row int) string // what a row's second value ends in, as it is written in the body
	}{
		{"ascii", func(int) string { return "" }},
		{"utf8", func(int) string { return "_café" }},
		{"escaped", func(int) string { return `_caf\u00e9` }},
		{"escaped-row-32", func(row int) string {
			if row == 32 {
				return `_a\"b`
			}
			return ""
		}},
	} {
		b.Run(kind.name, func(b *testing.B) {
			_, srv := liveServer(b)
			h := srv.Handler()
			body := func(batch int) *bytes.Reader {
				var buf bytes.Buffer
				for i := 0; i < batchRows; i++ {
					buf.WriteString(`["k` + strconv.Itoa((batch*31+i*7)%keys) + `","v` + strconv.Itoa(batch) + `_` + strconv.Itoa(i) + kind.suffix(i) + `"]` + "\n")
				}
				return bytes.NewReader(buf.Bytes())
			}
			w := newFlushCounter()
			send := func(target string, batch int) {
				w.body.Reset()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, body(batch)))
				if !bytes.Contains(w.body.Bytes(), []byte(`"applied":64,`)) {
					b.Fatalf("batch %d: %s", batch, w.body.Bytes())
				}
			}
			for batch := 0; batch < window; batch++ {
				send("/ingest?relation=live", batch)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send("/ingest?relation=live", window+i)
				send("/ingest?relation=live&op=delete", i)
			}
		})
	}
}
