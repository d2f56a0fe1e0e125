package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"toorjah/internal/ndjson"
)

// FuzzParseSchemaEpochs checks the epoch side-channel in /schema bodies:
// parsing never panics, never yields a zero epoch (zero means unversioned
// and must not appear), and whatever is parsed survives an
// AppendSchemaEpochs/ParseSchemaEpochs round trip — the exact path a
// client takes when it seeds its cache identity from a peer's schema.
func FuzzParseSchemaEpochs(f *testing.F) {
	seeds := []string{
		"r1(a, b*)\nr2(c*, d)\n# epoch r1 3\n# epoch r2 17\n",
		"# epoch only 1\n",
		"# epoch broken\n# epoch zero 0\n# epoch neg -4\n# epoch big 18446744073709551615\n",
		"#epoch nospace 2\n  # epoch indented 5\n",
		"# epoch dup 1\n# epoch dup 2\n",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		epochs := ParseSchemaEpochs(text)
		for name, e := range epochs {
			if e == 0 {
				t.Fatalf("parsed zero epoch for %q", name)
			}
			if strings.ContainsAny(name, " \t\n\r") {
				t.Fatalf("parsed relation name with whitespace: %q", name)
			}
		}
		var b strings.Builder
		AppendSchemaEpochs(&b, epochs)
		again := ParseSchemaEpochs(b.String())
		if len(again) != len(epochs) {
			t.Fatalf("round trip lost entries: %v -> %q -> %v", epochs, b.String(), again)
		}
		for name, e := range epochs {
			if again[name] != e {
				t.Fatalf("round trip changed %q: %d -> %d", name, e, again[name])
			}
		}
	})
}

// probeRequestSeams are the /probe bodies on the line between what
// decodeProbeRequest takes literally and what it leaves to json.Unmarshal.
var probeRequestSeams = []string{
	`{"relation":"rev","bindings":[["y2008"],["y2009"]]}`,
	`{"relation":"rev","bindings":[["y2008"]]}` + "\n",
	`{"relation":"free","bindings":[[]]}`,
	`{"relation":"free","bindings":[null]}`,
	`{"relation":"r","bindings":[]}`,
	`{"relation":"r","bindings":null}`,
	`{"relation":"r"}`,
	`{"bindings":[["a"]],"relation":"r"}`,
	`{"relation":"r","bindings":[["a"]],"extra":1}`,
	`{"relation":"r","relation":"s","bindings":[["a"]]}`,
	`{"Relation":"r","BINDINGS":[["a"]]}`,
	`{"relation": "r", "bindings": [["a"]]}`,
	`{"relation":"r","bindings":[["a", "b"] , ["c","d"]]}`,
	`{"relation":"r","bindings":[["a"],]}`,
	`{"relation":"r","bindings":[["a"]]} x`,
	`{"relation":"r","bindings":[["a"]]}{"relation":"s"}`,
	`{"relation":"r","bindings":[["a"]`,
	`{"relation":"r","bindings":[["a",1]]}`,
	`{"relation":"r","bindings":[["a",null]]}`,
	`{"relation":"r","bindings":[[["a"]]]}`,
	`{"relation":"r","bindings":["a"]}`,
	`{"relation":5,"bindings":[["a"]]}`,
	`{"relation":null,"bindings":[["a"]]}`,
	`{"relation":"caf\u00e9","bindings":[["a\"b","c\\d"]]}`,
	`{"relation":"café","bindings":[["日本語"]]}`,
	"{\"relation\":\"r\",\"bindings\":[[\"\xff\"]]}",
	"{\"relation\":\"caf\xc3\",\"bindings\":[[\"é\"]]}",
	"{\"relation\":\"r\",\"bindings\":[[\"é\",\"\xe9\"],[\"\xed\xa0\x80\"]]}",
	"{\"relation\":\"r\",\"bindings\":[[\"\u2028\"]]}",
	"{\"relation\":\"r\",\"bindings\":[[\"a\x00b\"]]}",
	`{"relation":"r","bindings":[["a\u0000b"]]}`,
	`{"relation":"<r>","bindings":[["a&b"]]}`,
	` {"relation":"r","bindings":[["a"]]}`,
	`[]`, `null`, `"r"`, `{}`, ``, `not json`,
}

// FuzzProbeRequest: on arbitrary bodies decodeProbeRequest and
// json.Unmarshal into a ProbeRequest yield the same request, or reject with
// the same error.
func FuzzProbeRequest(f *testing.F) {
	for _, s := range probeRequestSeams {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var got, want ProbeRequest
		gotErr := decodeProbeRequest([]byte(body), &got)
		wantErr := json.Unmarshal([]byte(body), &want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("body %q:\n  scanner:   %v\n  Unmarshal: %v", body, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\n  scanner:   %#v\n  Unmarshal: %#v", body, got, want)
		}
	})
}

// probeStreamSeams are response streams on the line between what decodeFrame
// takes literally and what it leaves to a json.Decoder.
var probeStreamSeams = []string{
	`{"b":0,"row":["a1","b1"]}` + "\n" + `{"b":1,"row":["a2","b3"]}` + "\n" + `{"done":true,"accesses":2,"tuples":2,"epoch":7}` + "\n",
	`{"done":true,"accesses":1,"tuples":0}` + "\n",
	`{"b":0,"row":[]}` + "\n" + `{"done":true,"accesses":1,"tuples":1}`,
	`{"b":0,"row":["a"]}{"b":0,"row":["b"]} {"done":true,"accesses":1,"tuples":2}`,
	`{"error":"index unavailable"}` + "\n",
	`{"error":"unknown relation \"x\""}` + "\n",
	`{"error":""}`,
	// An older or foreign peer: members reordered, unknown members, spacing.
	`{"row":["a1","b1"],"b":0}` + "\n" + `{"tuples":1,"accesses":1,"done":true}`,
	`{"b":0,"row":["a1","b1"],"shard":3}` + "\n" + `{"done":true,"accesses":1,"tuples":1,"took_ms":0.5}`,
	`{ "b": 0, "row": [ "a1", "b1" ] }` + "\n" + `{"done": true, "accesses": 1, "tuples": 1}`,
	"{\n  \"b\": 0,\n  \"row\": [\"a\"]\n}\n",
	`{"B":0,"ROW":["a"]}`,
	`{"b":0,"b":1,"row":["a"]}`,
	// Values the scanner leaves alone.
	`{"b":0,"row":["café","a\"b"]}`,
	"{\"b\":0,\"row\":[\"\xff\"]}",
	"{\"b\":0,\"row\":[\"é\",\"\xe9\"]}",
	"{\"b\":0,\"row\":[\"\xc0\xaf\",\"\u2028\"]}",
	"{\"error\":\"caf\xc3\"}",
	`{"error":"café"}`,
	`{"b":0,"row":null}`,
	`{"b":0,"row":["a",null]}`,
	`{"b":0,"row":["a",1]}`,
	`{"b":-1,"row":["a"]}`,
	`{"b":01,"row":["a"]}`,
	`{"b":1.0,"row":["a"]}`,
	`{"b":1e2,"row":["a"]}`,
	`{"b":"0","row":["a"]}`,
	`{"b":999999999,"row":["a"]}`,
	`{"b":1234567890,"row":["a"]}`,
	`{"b":123456789012345678,"row":["a"]}`,
	`{"b":1234567890123456789,"row":["a"]}`,
	`{"b":9223372036854775808,"row":["a"]}`,
	`{"done":false,"accesses":1,"tuples":0}`,
	`{"done":true,"accesses":1,"tuples":0,"epoch":0}`,
	`{"done":true,"accesses":1,"tuples":0,"epoch":999999999}`,
	`{"done":true,"accesses":1,"tuples":0,"epoch":1000000000}`,
	`{"done":true,"accesses":1,"tuples":0,"epoch":18446744073709551615}`,
	`{"done":true,"accesses":1,"tuples":0,"epoch":18446744073709551616}`,
	`{"done":true,"accesses":1,"tuples":0,"epoch":-1}`,
	`{"done":true,"accesses":1}`,
	`{"done":true}`,
	`{"done":true,"accesses":1,"tuples":0,}`,
	`{"b":0,"row":["a"]`,
	`{"b":0,"row":["a"]} garbage`,
	`{"b":0,"row":["a"]}` + "\n" + `{"b":0,"row":["é"]}` + "\n" + `{"b":1,"row":["b"]}` + "\n" + `{"done":true,"accesses":2,"tuples":3}`,
	// From the first frame left to the decoder on, the stream is the decoder's.
	`{"b":0,"row":["a\tb"]}` + "\n" + `{"b":0,"row":["a"]}` + " \n\n" + `{"done":true,"accesses":1,"tuples":2}` + "\n \n",
	`{"b":0,"row":["a\tb"]}{"b":0,"row":["a"]} garbage`,
	`{"b":0,"row":["a\tb"]}` + "\n" + `{"b":0,"row":["a"]`,
	`{}`, `[]`, `null`, `1`, ``, " \n", `not json`,
}

// FuzzProbeFrame: over an arbitrary response stream — whole, and cut short
// by a failing reader — decodeFrame and json.Decoder.Decode into a
// probeFrame yield the same frames and end on the same error.
func FuzzProbeFrame(f *testing.F) {
	for _, s := range probeStreamSeams {
		f.Add(s, len(s)/2)
	}
	f.Fuzz(func(t *testing.T, stream string, cut int) {
		checkFramesAgainstDecoder(t, stream, nil)
		checkFramesAgainstDecoder(t, stream[:min(max(cut, 0), len(stream))], errors.New("cut"))
	})
}

func checkFramesAgainstDecoder(t *testing.T, stream string, readErr error) {
	t.Helper()
	var r io.Reader = strings.NewReader(stream)
	if readErr != nil {
		r = io.MultiReader(r, iotest.ErrReader(readErr))
	}
	dec := json.NewDecoder(r)
	sc := ndjson.Scanner{B: []byte(stream), Err: readErr}
	for n := 1; ; n++ {
		var got, want probeFrame
		wantErr := dec.Decode(&want)
		gotErr := decodeFrame(&sc, &got)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("stream %q (reader ends with %v), frame %d:\n  scanner: %v\n  Decoder: %v", stream, readErr, n, gotErr, wantErr)
		}
		if gotErr != nil {
			if (gotErr == io.EOF) != (wantErr == io.EOF) || errors.Is(gotErr, readErr) != errors.Is(wantErr, readErr) {
				t.Fatalf("stream %q, frame %d: errors of different kinds: %v / %v", stream, n, gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %q, frame %d:\n  scanner: %#v\n  Decoder: %#v", stream, n, got, want)
		}
	}
}

// FuzzProbeWire holds the append encoders of the probe protocol to
// encoding/json, byte for byte: the request to json.Marshal, the row and
// done frames to json.Encoder — and what they render decodes back the way
// encoding/json decodes it.
func FuzzProbeWire(f *testing.F) {
	f.Add("rev", "y2008", "icde", 3, 2, uint64(7), byte(0))
	f.Add("", "", `"`, 0, 0, uint64(0), byte(1))
	f.Add(`a\b`, "a\nb", "<>&", -1, 1<<40, uint64(1<<63), byte(2))
	f.Add("日本語", "\xff\xc3", "\u2028", 123456789, -5, ^uint64(0), byte(3))
	f.Fuzz(func(t *testing.T, relation, a, b string, n, m int, epoch uint64, shape byte) {
		bindings := [][][]string{{{a, b}, {b}}, {{}}, {nil, {a}}, nil, {}}[int(shape)%5]
		want, err := json.Marshal(ProbeRequest{Relation: relation, Bindings: bindings})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendProbeRequest([]byte("kept"), relation, bindings); string(got) != "kept"+string(want) {
			t.Fatalf("appendProbeRequest(%q, %q) = %q, json.Marshal writes %q", relation, bindings, got[4:], want)
		}
		var back ProbeRequest
		if err := decodeProbeRequest(want, &back); err != nil || !reflect.DeepEqual(back, roundTripped(t, want)) {
			t.Fatalf("request %q decodes to %#v, %v", want, back, err)
		}

		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		row := []string{a, b}
		if shape&1 == 1 {
			row = []string{}
		}
		done := doneFrame{Done: true, Accesses: n, Tuples: m, Epoch: epoch}
		if err := enc.Encode(rowFrame{B: n, Row: row}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(done); err != nil {
			t.Fatal(err)
		}
		got := appendDoneFrame(appendRowFrame(nil, n, row), done)
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("frames render as %q, json.Encoder writes %q", got, buf.Bytes())
		}
		checkFramesAgainstDecoder(t, string(got), nil)
	})
}

// roundTripped is body as json.Unmarshal decodes it.
func roundTripped(t *testing.T, body []byte) ProbeRequest {
	t.Helper()
	var req ProbeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	return req
}
