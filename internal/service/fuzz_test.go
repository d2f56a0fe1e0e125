package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"toorjah"
)

// oracleIngestRows is the decoder /ingest had before the scanner: a
// json.Decoder loop over the body. It stays here as the reference
// decodeIngestRows is held to.
func oracleIngestRows(r io.Reader, arity int) ([]toorjah.Row, error) {
	dec := json.NewDecoder(r)
	var rows []toorjah.Row
	for {
		var row []string
		err := dec.Decode(&row)
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", len(rows)+1, err)
		}
		if len(row) != arity {
			return nil, fmt.Errorf("row %d has arity %d, want %d", len(rows)+1, len(row), arity)
		}
		rows = append(rows, toorjah.Row(row))
	}
}

// checkIngestRowsAgainstOracle decodes body both ways — whole, and cut off
// after cut bytes by a failing reader — and wants the same rows or the same
// error, row number included.
func checkIngestRowsAgainstOracle(t *testing.T, body string, arity int, cut int) {
	t.Helper()
	errCut := errors.New("cut")
	for _, c := range []struct {
		body string
		err  error
	}{{body, nil}, {body[:min(max(cut, 0), len(body))], errCut}} {
		var r io.Reader = strings.NewReader(c.body)
		if c.err != nil {
			r = io.MultiReader(r, iotest.ErrReader(c.err)) // as http.MaxBytesReader fails at its limit
		}
		want, wantErr := oracleIngestRows(r, arity)
		got, gotErr := decodeIngestRows([]byte(c.body), c.err, arity)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("body %q (reader ends with %v), arity %d:\n  scanner: %v\n  oracle:  %v", c.body, c.err, arity, gotErr, wantErr)
		}
		if c.err != nil && gotErr != nil && errors.Is(gotErr, errCut) != errors.Is(wantErr, errCut) {
			t.Fatalf("body %q: the reader's error is wrapped by one decoder only: %v / %v", c.body, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q, arity %d:\n  scanner: %#v\n  oracle:  %#v", c.body, arity, got, want)
		}
		for i, row := range got {
			if len(row) != arity {
				t.Fatalf("accepted row %d with arity %d, want %d", i, len(row), arity)
			}
		}
	}
}

// ingestSeams are the bodies on the line between what the scanner takes
// literally and what it leaves to encoding/json.
var ingestSeams = []struct {
	name, body string
	arity      int
}{
	{"two lines", `["a","b"]` + "\n" + `["c","d"]`, 2},
	{"two rows on a line", `["a","b"] ["c","d"]`, 2},
	{"two rows, no space", `["a","b"]["c","d"]`, 2},
	{"a row spanning lines", "[\n\"a\"\n,\n\"b\"\n]\n", 2},
	{"space inside", `[ "a" , "b" ]`, 2},
	{"CRLF", "[\"a\",\"b\"]\r\n[\"c\",\"d\"]\r\n", 2},
	{"tabs", "\t[\"a\"]\t\n", 1},
	{"empty body", "", 3},
	{"only space", " \n\r\n\t", 1},
	{"nullary", `[]`, 0},
	{"nullary, spaced", "[ ]\n[]\n", 0},
	{"nullary for a unary", `[]`, 1},
	{"too short", `["only"]`, 2},
	{"too long", `["a","b","c"]`, 2},
	{"empty value", `["",""]`, 2},
	{"escapes", `["a\"b","c\\d","e\/f","\b\f\n\r\t"]`, 4},
	{"unicode escape", `["\u00e9","\ud83d\ude00"]`, 2},
	{"lone surrogate", `["\ud800"]`, 1},
	{"escaped NUL", `["a\u0000b"]`, 1},
	{"bad escape", `["\x"]`, 1},
	{"non-ASCII", `["café","日本語"]`, 2},
	{"invalid UTF-8", "[\"\xff\",\"a\xc3\"]", 2},
	{"raw control byte", "[\"a\x01b\"]", 1},
	{"raw newline in a value", "[\"a\nb\"]", 1},
	{"DEL", "[\"a\x7fb\"]", 1},
	{"html", `["<a&b>"]`, 1},
	{"null element", `["a",null]`, 2},
	{"null row", `null`, 0},
	{"null row for a unary", `null`, 1},
	{"number element", `["a",1]`, 2},
	{"bool element", `[true]`, 1},
	{"nested array", `[["a"]]`, 1},
	{"object element", `[{"a":"b"}]`, 1},
	{"object", `{"not":"an array"}`, 1},
	{"string", `"a"`, 1},
	{"unterminated row", `["a",`, 1},
	{"unterminated value", `["a`, 1},
	{"missing comma", `["a" "b"]`, 2},
	{"trailing comma", `["a",]`, 1},
	{"leading comma", `[,"a"]`, 1},
	{"garbage after a row", `["a","b","c"]` + "\ngarbage", 3},
	{"garbage", "not json\n", 3},
	{"UTF-8 beside invalid UTF-8", "[\"é\",\"\xe9\"]", 2},
	{"overlong and surrogate UTF-8", "[\"\xc0\xaf\"]\n[\"\xed\xa0\x80\"]", 1},
	{"raw U+2028", "[\"\u2028\"]", 1},
	{"an escape, then literal rows", `["a"]` + "\n" + `["\t"]` + "\n" + `["b"]` + " \n\n" + `["\n"]` + "\n" + `["c"]` + "\n ", 1},
	{"bad row after an escape", `["\t"]` + "\n" + `["a","b"]`, 1},
	{"garbage after an escape", `["\t"]` + "\n" + `["a"] x`, 1},
	{"error in the third row", `["a"]` + "\n" + `["b"]` + "\n" + `[1]`, 1},
}

// TestDecodeIngestRowsSeams: on every seam the scanner and the json.Decoder
// loop it replaced agree — rows, error text and row number — on the whole
// body and on the body cut at every byte.
func TestDecodeIngestRowsSeams(t *testing.T) {
	for _, tc := range ingestSeams {
		t.Run(tc.name, func(t *testing.T) {
			for cut := 0; cut <= len(tc.body); cut++ {
				checkIngestRowsAgainstOracle(t, tc.body, tc.arity, cut)
			}
		})
	}
}

// TestDecodeIngestRowsCopies: decoded values do not alias the body — its
// buffer is pooled — and a row's values share one string, not the body's.
func TestDecodeIngestRowsCopies(t *testing.T) {
	body := []byte(`["alice","icde"]` + "\n" + `["bob","vldb"]` + "\n")
	rows, err := decodeIngestRows(body, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'x'
	}
	want := []toorjah.Row{{"alice", "icde"}, {"bob", "vldb"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows changed with the body's bytes: %v", rows)
	}
	body = []byte(`["alice","icde"]` + "\n" + `["bob","vldb"]` + "\n")
	if n := testing.AllocsPerRun(50, func() {
		if _, err := decodeIngestRows(body, nil, 2); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Errorf("decoding two rows made %v allocations, want at most 6 (the rows, grown once; a string and its array a row)", n)
	}
}

// FuzzDecodeIngestRows is differential: on arbitrary bodies, whole and cut
// short by a failing reader, the /ingest row decoder and the json.Decoder
// loop it replaced return the same rows or reject with the same error, row
// number included — and every accepted row has exactly the declared arity,
// the invariant the storage layer builds indexes on.
func FuzzDecodeIngestRows(f *testing.F) {
	for _, tc := range ingestSeams {
		f.Add(tc.body, tc.arity, len(tc.body)/2)
	}
	f.Fuzz(func(t *testing.T, body string, arity int, cut int) {
		checkIngestRowsAgainstOracle(t, body, arity, cut)
	})
}

// FuzzQueryParams holds queryParam to url.ParseQuery(raw) followed by Get
// and Has, for the key a raw query names and for the handlers' own keys:
// the same first value, the same presence — across repeated keys, ';' in a
// pair, '+', escapes in keys and values, malformed escapes and empty values.
func FuzzQueryParams(f *testing.F) {
	for _, seed := range []struct{ raw, key string }{
		{"q=q%28C%2C+Y%29+%3A-+conf%28p5%2C+C%2C+Y%29&limit=1", "q"},
		{"q=a&q=b", "q"},
		{"q=%zz&q=b", "q"},
		{"q=a;b&q=c", "q"},
		{"a;b=1&q=2", "q"},
		{"%71=escaped+key", "q"},
		{"trace=1&trace=0", "trace"},
		{"limit=&limit=3", "limit"},
		{"ready", "ready"},
		{"ready=%", "ready"},
		{"&&q=&", "q"},
		{"q=%4", "q"},
		{"q=100%25+sure", "q"},
		{"q+x=1&q x=2", "q x"},
		{"relation=r%C3%A9v&op=delete", "relation"},
	} {
		f.Add(seed.raw, seed.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		values, _ := url.ParseQuery(raw)
		for _, k := range []string{key, "q", "limit", "trace", "ready", "relation", "op"} {
			got, has := queryParam(raw, k)
			if want := values.Get(k); got != want || has != values.Has(k) {
				t.Fatalf("queryParam(%q, %q) = %q, %v; url.ParseQuery: %q, %v", raw, k, got, has, want, values.Has(k))
			}
		}
	})
}
