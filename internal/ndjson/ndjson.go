// Package ndjson is the service's one JSON-lines codec: the append encoders
// that render the lines of /query, /probe and the /ingest ack, and the
// scanner that decodes the bodies requests carry — /ingest rows, /probe
// requests, probe frames — in one pass over their bytes, without reflection.
//
// Both halves live by one rule. What is taken literally is what the encoders
// themselves write for nearly every value: a string with no quote, no
// backslash and no control byte, copied between quotes — printable ASCII
// when it is rendered, any valid UTF-8 when it is scanned (<, >, & and
// U+2028/2029 are escaped by encoding/json where it writes, and read raw);
// '[' such strings ']', with JSON whitespace between the tokens; a decimal
// integer as strconv prints it; and, in internal/remote, the fixed member
// sequences of the probe protocol's frames. Everything else — a string
// holding an escape, a control byte or invalid UTF-8, a null, a number where
// a string belongs, a frame with other or reordered members, anything
// malformed — is decided by encoding/json itself: the encoder hands the
// value to json.Marshal, a decoder hands the value it stopped in, and with
// it the rest of the body, to Scanner.Fallback (or, for a body that is one
// value, json.Unmarshal). So the accept/reject set, the decoded values, the
// error texts and every byte on the wire are encoding/json's; the
// differential fuzz targets of internal/service and internal/remote hold
// each decoder and encoder to that.
package ndjson

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Spill bounds the rendered lines a response holds back (a burst of /query
// answers, the frames of a /probe): more than this leaves in several writes,
// so the buffer of a request stays bounded however much one round trip
// derives.
const Spill = 32 << 10

// raw marks the bytes encoding/json writes as they are in a string with HTML
// escaping on: printable ASCII and DEL, but for ", \, <, > and &.
var raw = func() (set [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		set[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return set
}()

// AppendString appends s as a JSON string the way encoding/json renders it
// with HTML escaping on (its default). A string of raw bytes — nearly every
// value — is copied between quotes; anything else (quotes, backslashes,
// control bytes, <>&, non-ASCII and with it U+2028/2029 and invalid UTF-8)
// is left to encoding/json itself.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !raw[s[i]] {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendStrings appends vals as a JSON array of strings. A nil vals renders
// as [], not as encoding/json's null: a caller for whom the difference is on
// the wire says so itself.
func AppendStrings(dst []byte, vals []string) []byte {
	dst = append(dst, '[')
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, v)
	}
	return append(dst, ']')
}

// AppendFloat appends a finite f the way encoding/json renders a float64:
// shortest decimal that round-trips, exponent form only for very small and
// very large magnitudes, and then without a leading zero in a two-digit
// exponent.
func AppendFloat(dst []byte, f float64) []byte {
	// Milliseconds from whole microseconds (every elapsed_ms) are nearest to
	// a three-place decimal of at most 15 digits, which round-trip through a
	// float64: no shorter decimal is as near, so it is the answer.
	if m := math.Round(f * 1000); f > 0 && m < 1e15 && m/1000 == f {
		ms := int64(m)
		dst = strconv.AppendInt(dst, ms/1000, 10)
		if frac := ms % 1000; frac != 0 {
			dst = append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
			for dst[len(dst)-1] == '0' {
				dst = dst[:len(dst)-1]
			}
		}
		return dst
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// A Scanner walks one body — B, read to its end or to where its reader
// failed with Err — from I on. Its methods take a token literally or not at
// all: the first one that finds something else marks the scanner failed, and
// from then on they all do nothing, so a caller checks Failed once, behind
// the last token of a value, and hands the value to Fallback when it is set.
//
// It keeps nothing of the body's bytes: an array's values are substrings of
// one string copied out of the body — so a value that lives on (interned,
// say) keeps its own row's bytes alive, never the body's.
type Scanner struct {
	B   []byte
	Err error // what reading B ended with; nil at a clean end
	I   int

	failed bool
	dec    *json.Decoder // reads B[base:] once a value has fallen back
	base   int
}

// End skips JSON whitespace and reports what is left: nil when a value
// follows, io.EOF when the body ended cleanly, Err when it did not — what a
// json.Decoder on the stream returns for its next value in the last two
// cases.
func (sc *Scanner) End() error {
	sc.space()
	switch {
	case sc.I < len(sc.B):
		return nil
	case sc.Err != nil:
		return sc.Err
	}
	return io.EOF
}

func (sc *Scanner) space() {
	for sc.I < len(sc.B) && (sc.B[sc.I] == ' ' || sc.B[sc.I] == '\n' || sc.B[sc.I] == '\r' || sc.B[sc.I] == '\t') {
		sc.I++
	}
}

// Failed reports whether a token was not the one asked for.
func (sc *Scanner) Failed() bool { return sc.failed }

// Has steps over lit when the body holds it next, and reports whether it
// did; finding something else is not a failure.
func (sc *Scanner) Has(lit string) bool {
	if sc.failed || len(sc.B)-sc.I < len(lit) || string(sc.B[sc.I:sc.I+len(lit)]) != lit {
		return false
	}
	sc.I += len(lit)
	return true
}

// Expect is Has for a token that has to be there.
func (sc *Scanner) Expect(lit string) {
	if !sc.Has(lit) {
		sc.failed = true
	}
}

// Uint scans a decimal integer: 0, or up to 9 digits without a leading zero,
// so that it fits an int on every platform. A longer one, a sign, a fraction
// or an exponent is not what the caller expects behind it.
func (sc *Scanner) Uint() (v uint64) {
	if sc.failed {
		return 0
	}
	b, i := sc.B, sc.I
	for ; i < len(b) && i-sc.I < 9 && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	if i == sc.I || (b[sc.I] == '0' && i > sc.I+1) {
		sc.failed = true
		return 0
	}
	sc.I = i
	return v
}

// stringEnd returns the index of the quote closing the string whose first
// byte is b[i], or -1 when an escape or a control byte comes first. Bytes
// from 0x80 up are passed: the caller has them checked as UTF-8.
func stringEnd(b []byte, i int) int {
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i
		case c < 0x20 || c == '\\':
			return -1
		}
	}
	return -1
}

// Str scans a string and returns a copy of its value.
func (sc *Scanner) Str() string {
	if !sc.Has(`"`) {
		sc.failed = true
		return ""
	}
	end := stringEnd(sc.B, sc.I)
	if end < 0 || !utf8.Valid(sc.B[sc.I:end]) {
		sc.failed = true
		return ""
	}
	s := string(sc.B[sc.I:end])
	sc.I = end + 1
	return s
}

// Strings scans an array of strings, JSON whitespace allowed between its
// tokens, and returns its elements — not nil for an empty array.
func (sc *Scanner) Strings() []string {
	if !sc.Has("[") {
		sc.failed = true
		return nil
	}
	if sc.space(); sc.Has("]") {
		return []string{}
	}
	b, bounds := sc.B, make([]int, 0, 16) // where the values start and end; on the stack for up to eight
	for {
		i := sc.I
		if i >= len(b) || b[i] != '"' {
			sc.failed = true
			return nil
		}
		end := stringEnd(b, i+1)
		if end < 0 {
			sc.failed = true
			return nil
		}
		bounds = append(bounds, i+1, end)
		sc.I = end + 1
		if sc.space(); sc.Has("]") {
			break
		}
		if !sc.Has(",") {
			sc.failed = true
			return nil
		}
		sc.space()
	}
	// One copy for the array: what lies between two values is ASCII, so the
	// copy is valid UTF-8 exactly when every value is.
	first := bounds[0]
	all := string(b[first:bounds[len(bounds)-1]])
	if !utf8.ValidString(all) {
		sc.failed = true
		return nil
	}
	vals := make([]string, len(bounds)/2)
	for k := range vals {
		vals[k] = all[bounds[2*k]-first : bounds[2*k+1]-first]
	}
	return vals
}

// Fallback is what a scanner that failed does with the value it failed in:
// it goes back to at, where the value began, and decodes the one value there
// into v exactly as a json.Decoder reading the stream would — a value the
// body cuts short fails with Err, as it would have mid-read. That decoder
// then keeps the rest of the body: the scanner stays failed, End reports
// from behind the decoded value, and every later value comes here — a body
// that holds one value the scanner does not take tends to hold more, and a
// decoder a value would cost more than encoding/json alone.
func (sc *Scanner) Fallback(at int, v any) error {
	if sc.dec == nil {
		var r io.Reader = bytes.NewReader(sc.B[at:])
		if sc.Err != nil {
			r = io.MultiReader(r, failingReader{sc.Err})
		}
		sc.dec, sc.base = json.NewDecoder(r), at
	}
	if err := sc.dec.Decode(v); err != nil {
		return err
	}
	sc.I = sc.base + int(sc.dec.InputOffset())
	return nil
}

type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// A Buffer holds one body's bytes — read from a request or a response, then
// reused for what is rendered in reply. Buffers are pooled: Get and Read take
// one, Free hands it back.
type Buffer struct{ B []byte }

var buffers = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 2048)} }}

// maxPooled is the largest array Free keeps: one huge body must not stay
// allocated behind every small one that follows.
const maxPooled = 1 << 20

// Get takes an empty buffer from the pool; it is the caller's to Free.
func Get() *Buffer { return buffers.Get().(*Buffer) }

// Read reads r to its end into a pooled buffer. The error is r's, nil at a
// clean end; the buffer holds what was read before it either way, and is the
// caller's to Free.
func Read(r io.Reader) (*Buffer, error) {
	buf := Get()
	b := bytes.NewBuffer(buf.B[:0])
	_, err := b.ReadFrom(r) // nil at io.EOF
	buf.B = b.Bytes()
	return buf, err
}

// Clear empties the buffer, keeping its array.
func (buf *Buffer) Clear() { buf.B = buf.B[:0] }

// Free returns the buffer to the pool; nothing may use its bytes afterwards.
func (buf *Buffer) Free() {
	if cap(buf.B) > maxPooled {
		return
	}
	buf.Clear()
	buffers.Put(buf)
}
