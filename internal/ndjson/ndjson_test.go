package ndjson

import (
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// The codec's equivalence to encoding/json is held by the differential fuzz
// targets of its callers (internal/service, internal/remote); these tests
// are about what only this package knows — where a token ends, how arrays
// share their storage, what a buffer holds after a failed read, which bytes
// a string is copied with.

func TestUint(t *testing.T) {
	for _, tc := range []struct {
		in   string
		v    uint64
		next int
		ok   bool
	}{
		{"0", 0, 1, true},
		{"0,", 0, 1, true},
		{"7}", 7, 1, true},
		{"42845,", 42845, 5, true},
		{"999999999", 999999999, 9, true},
		{"1234567890", 123456789, 9, true}, // the tenth digit is the caller's to refuse
		{"01", 0, 0, false},
		{"00", 0, 0, false},
		{"", 0, 0, false},
		{"-1", 0, 0, false},
		{"+1", 0, 0, false},
		{".5", 0, 0, false},
		{"x", 0, 0, false},
		{"1.5", 1, 1, true}, // likewise the fraction
		{"1e3", 1, 1, true},
	} {
		sc := Scanner{B: []byte("xx" + tc.in), I: 2}
		if v := sc.Uint(); v != tc.v || sc.I != 2+tc.next || sc.Failed() == tc.ok {
			t.Errorf("Uint(%q) = %d, stops at %d, failed %v; want %d, %d, %v", tc.in, v, sc.I-2, sc.Failed(), tc.v, tc.next, !tc.ok)
		}
	}
}

// TestFailureSticks: behind the first token that was not there every
// method does nothing, and from the first Fallback on the rest of the body
// is its decoder's, value by value.
func TestFailureSticks(t *testing.T) {
	sc := Scanner{B: []byte(`{"b":x,"row":["a"]}`)}
	if !sc.Has(`{"b":`) {
		t.Fatal("the literal is there")
	}
	at := sc.I
	if v := sc.Uint(); v != 0 || !sc.Failed() || sc.I != at {
		t.Fatalf("Uint on %q = %d, failed %v, moved %d", sc.B[at:], v, sc.Failed(), sc.I-at)
	}
	if sc.Has("x") || sc.Uint() != 0 || sc.Str() != "" || sc.Strings() != nil || sc.I != at {
		t.Errorf("a failed scanner still scans: now at %d", sc.I)
	}
	if sc.Expect("x"); !sc.Failed() {
		t.Error("Expect cleared the failure")
	}
	var v map[string]any
	if err := sc.Fallback(0, &v); err == nil {
		t.Error("Fallback decoded a malformed value")
	}

	sc = Scanner{B: []byte(`["a"] ["\u00e9"] ["b"] 12 `)}
	var rows [][]string
	for sc.End() == nil && len(rows) < 3 {
		at := sc.I
		row := sc.Strings()
		if sc.Failed() != (len(rows) > 0) {
			t.Fatalf("row %d: failed %v; want the escape, and every row behind it, left to Fallback", len(rows), sc.Failed())
		}
		if sc.Failed() {
			if err := sc.Fallback(at, &row); err != nil {
				t.Fatal(err)
			}
		}
		rows = append(rows, row)
	}
	if want := [][]string{{"a"}, {"é"}, {"b"}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %q, want %q", rows, want)
	}
	var n int
	if err := sc.Fallback(sc.I, &n); err != nil || n != 12 || sc.End() != io.EOF {
		t.Errorf("behind the rows: %d, %v, at %d of %d", n, err, sc.I, len(sc.B))
	}
}

// TestStringsTakenLiterally: every byte but a quote, a backslash and a
// control byte is, when the value is UTF-8 — and then it is the value
// encoding/json decodes.
func TestStringsTakenLiterally(t *testing.T) {
	for c := 0; c < 256; c++ {
		in := []byte{'"', 'a', byte(c), 'b', '"'}
		sc := Scanner{B: in}
		s := sc.Str()
		switch {
		case c == '"':
			if sc.Failed() || s != "a" || sc.I != 3 {
				t.Errorf("a quote ends the string: got %q, %d, failed %v", s, sc.I, sc.Failed())
			}
		case c < 0x20 || c >= 0x80 || c == '\\':
			if !sc.Failed() {
				t.Errorf("byte %#x taken literally", c)
			}
		default:
			if sc.Failed() || s != string(in[1:4]) || sc.I != 5 {
				t.Errorf("byte %#x: got %q, %d, failed %v", c, s, sc.I, sc.Failed())
			}
		}
	}
	for in, literal := range map[string]bool{
		`"café"`: true, `"日本語"`: true, `"\u2028\U0001F600"`: false, "\"\u2028\U0001F600\"": true, "\"\uFFFD\"": true,
		"\"a\xc3\"": false, "\"\xa9b\"": false, "\"\xed\xa0\x80\"": false, "\"\xc0\xaf\"": false, "\"\xf4\x90\x80\x80\"": false,
	} {
		for _, arr := range []bool{false, true} {
			var got, want any
			sc := Scanner{B: []byte(in)}
			if got, want = sc.Str(), ""; arr {
				sc = Scanner{B: []byte(`["k",` + in + `]`)}
				got, want = sc.Strings(), []string{}
			}
			if sc.Failed() == literal {
				t.Errorf("%s (in an array: %v): failed %v, want literal %v", in, arr, sc.Failed(), literal)
			}
			if literal {
				want := reflect.New(reflect.TypeOf(want))
				if err := json.Unmarshal(sc.B, want.Interface()); err != nil || !reflect.DeepEqual(got, want.Elem().Interface()) {
					t.Errorf("%s: scanned %q, encoding/json decodes %q, %v", in, got, want.Elem(), err)
				}
			}
		}
	}
	for _, in := range []string{``, `a"`, `"a`, `"`} {
		if sc := (Scanner{B: []byte(in)}); sc.Str() != "" || !sc.Failed() {
			t.Errorf("Str(%q) accepted", in)
		}
	}
}

// TestScannerArraysAreTheirOwn: no array reaches into another, and no value
// aliases the body.
func TestScannerArraysAreTheirOwn(t *testing.T) {
	body := []byte(`["a","b"] [ "c" , "d" , "e" ] [] ["f"]`)
	sc := Scanner{B: body}
	var rows [][]string
	for sc.End() == nil {
		row := sc.Strings()
		if sc.Failed() {
			t.Fatalf("array before %d refused", sc.I)
		}
		rows = append(rows, row)
	}
	if len(rows) != 4 || rows[2] == nil {
		t.Fatalf("rows = %#v, want four, the empty one not nil", rows)
	}
	for i := range body {
		body[i] = '#'
	}
	rows[0] = append(rows[0], "grown")
	rows[2] = append(rows[2], "grown")
	want := [][]string{{"a", "b", "grown"}, {"c", "d", "e"}, {"grown"}, {"f"}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %q, want %q", rows, want)
	}

}

// TestAppendStringMatchesMarshal: over every string of one and of two bytes
// — every pair of raw and escaped bytes, every ASCII byte beside every
// non-ASCII one, valid UTF-8 or not — AppendString writes what json.Marshal
// does.
func TestAppendStringMatchesMarshal(t *testing.T) {
	var buf []byte
	check := func(s string) {
		want, err := json.Marshal(s)
		if buf = AppendString(buf[:0], s); err != nil || string(buf) != string(want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s, %v", s, buf, want, err)
		}
	}
	for c := 0; c < 256; c++ {
		check(string([]byte{byte(c)}))
		for d := 0; d < 256; d++ {
			check(string([]byte{byte(c), byte(d)}))
		}
	}
}

func TestReadAndFree(t *testing.T) {
	long := strings.Repeat("0123456789", 1000)
	buf, err := Read(iotest.OneByteReader(strings.NewReader(long)))
	if err != nil || string(buf.B) != long {
		t.Fatalf("read %d bytes, %v", len(buf.B), err)
	}
	buf.Free()

	cut := errors.New("cut")
	buf, err = Read(io.MultiReader(strings.NewReader("so far"), iotest.ErrReader(cut)))
	if err != cut || string(buf.B) != "so far" {
		t.Errorf("a failed read leaves %q, %v; want what came before the error, and the error", buf.B, err)
	}
	buf.Free()

	buf, err = Read(iotest.DataErrReader(strings.NewReader("with its EOF")))
	if err != nil || string(buf.B) != "with its EOF" {
		t.Errorf("data arriving with EOF: %q, %v", buf.B, err)
	}
	buf.B = make([]byte, 0, maxPooled+1)
	buf.Free() // dropped, not pooled
	for i := 0; i < 100; i++ {
		b, _ := Read(strings.NewReader(""))
		if cap(b.B) > maxPooled {
			t.Fatalf("a %d-byte array came back from the pool", cap(b.B))
		}
		defer b.Free()
	}
}

// TestFallbackIsADecoderOnTheStream: Fallback consumes exactly one value and
// fails a value the stream cuts short with the stream's own error.
func TestFallbackIsADecoderOnTheStream(t *testing.T) {
	var row []string
	sc := Scanner{B: []byte(`x["\t","b"] ["next"]`)}
	if err := sc.Fallback(1, &row); err != nil || sc.I != 1+len(`["\t","b"]`) || !reflect.DeepEqual(row, []string{"\t", "b"}) {
		t.Errorf("Fallback = %v, now at %d, %q", err, sc.I, row)
	}
	cut := errors.New("cut")
	for _, tc := range []struct {
		body string
		err  error
		want error
	}{
		{`["a",`, cut, cut},
		{`["a",`, nil, io.ErrUnexpectedEOF},
		{`null `, cut, nil},
		{`null`, cut, cut}, // a literal may go on behind the cut
	} {
		sc := Scanner{B: []byte(tc.body), Err: tc.err}
		if err := sc.Fallback(0, &row); err != tc.want {
			t.Errorf("%q, reader ending with %v: %v, want %v", tc.body, tc.err, err, tc.want)
		}
	}
}
