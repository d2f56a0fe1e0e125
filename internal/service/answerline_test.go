package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"toorjah/internal/obs"
)

// encoderAnswerLine is the reference: the frame as json.Encoder renders it.
func encoderAnswerLine(t testing.TB, vals []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(answerLine{Answer: vals}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendAnswerLineMatchesEncoder: the append encoder and json.Encoder
// agree byte for byte on everything a value can hold.
func TestAppendAnswerLineMatchesEncoder(t *testing.T) {
	cases := map[string][]string{
		"boolean query":    {},
		"plain":            {"alice", "icde", "y2008"},
		"empty value":      {""},
		"quote, backslash": {`say "hi"`, `a\b`, `\`},
		"named controls":   {"a\nb", "a\rb", "a\tb", "a\bb", "a\fb"},
		"other controls":   {"\x00", "a\x01b", "\x1f", "\x7f"},
		"html":             {"<script>", "a&b", "x>y"},
		"line separators":  {"a\u2028b", "\u2029"},
		"non-ascii":        {"café", "日本語", "😀"},
		"invalid utf-8":    {"\xff", "a\xc3", "\xed\xa0\x80"},
		"mixed tuple":      {"plain", "<&>", "plain again", "\xffé\"\n"},
	}
	prefix := []byte("kept")
	for name, vals := range cases {
		want := encoderAnswerLine(t, vals)
		got := appendAnswerLine(append([]byte(nil), prefix...), vals)
		if !bytes.HasPrefix(got, prefix) {
			t.Errorf("%s: appending overwrote what the buffer held: %q", name, got)
		}
		if got = got[len(prefix):]; !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
	if got := string(appendAnswerLine(nil, []string{})); got != "{\"answer\":[]}\n" {
		t.Errorf("boolean query renders as %q", got)
	}
}

// FuzzAnswerLine holds appendAnswerLine to json.Encoder on arbitrary
// values — a tuple of the two fuzzed strings, and the second alone, so the
// separator and both the fast and the escaping path meet in one line.
func FuzzAnswerLine(f *testing.F) {
	f.Add("alice", "icde")
	f.Add("", `"`)
	f.Add(`a\b`, "a\nb")
	f.Add("<>&", "\u2028\u2029")
	f.Add("\x00\x1f\x7f", "\xff\xc3")
	f.Add("日本語", "plain")
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, vals := range [][]string{{a, b}, {b}} {
			if got, want := appendAnswerLine(nil, vals), encoderAnswerLine(t, vals); !bytes.Equal(got, want) {
				t.Fatalf("appendAnswerLine(%q) = %q, json.Encoder writes %q", vals, got, want)
			}
		}
	})
}

// BenchmarkAnswerLine is the NDJSON-encode layer on its own: one answer of
// serve-scan's shape, rendered by the append encoder into a reused buffer
// and by json.Encoder into a discarding writer.
func BenchmarkAnswerLine(b *testing.B) {
	vals := []string{"t117_1", "c114"}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendAnswerLine(buf[:0], vals)
		}
		if !bytes.Equal(buf, encoderAnswerLine(b, vals)) {
			b.Fatalf("rendered %q", buf)
		}
	})
	b.Run("json.Encoder", func(b *testing.B) {
		b.ReportAllocs()
		enc := json.NewEncoder(io.Discard)
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(answerLine{Answer: vals}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAppendDoneLineMatchesEncoder: the done line leaves /query byte for
// byte as json.Encoder.Encode(doneLine{…}) wrote it, over everything its
// members can hold.
func TestAppendDoneLineMatchesEncoder(t *testing.T) {
	span := &obs.SpanJSON{
		Name: "query", StartMS: 0, DurMS: 0.125,
		Attrs: map[string]any{"executor": "pipelined", "html": "<a&b>", "n": 3},
		Children: []obs.SpanJSON{
			{Name: "probe", StartMS: 0.01, DurMS: 0.1, Attrs: map[string]any{"relation": "conf"}},
		},
	}
	cases := map[string]doneLine{
		"zero value":      {},
		"empty answer":    {Done: true},
		"point query":     {Done: true, Answers: 2, Accesses: 1, Batches: 1, Tuples: 2, ElapsedMS: 0.093, TraceID: "4f2a9c0d1b3e5f67"},
		"large counts":    {Done: true, Answers: math.MaxInt32, Accesses: 42845, Batches: 1 << 40, Tuples: math.MaxInt64, ElapsedMS: 86400000},
		"negative count":  {Done: true, Answers: -1},
		"whole ms":        {Done: true, ElapsedMS: 17},
		"microsecond":     {Done: true, ElapsedMS: 0.001},
		"long fraction":   {Done: true, ElapsedMS: 1234.567},
		"tiny, exponent":  {Done: true, ElapsedMS: 1e-7},
		"two-digit exp":   {Done: true, ElapsedMS: 2.5e-12},
		"huge, exponent":  {Done: true, ElapsedMS: 1e21},
		"just below 1e21": {Done: true, ElapsedMS: 999999999999999900000},
		"truncated":       {Done: true, Answers: 3, Truncated: true},
		"union":           {Done: true, Answers: 1, Disjuncts: 2, TraceID: "abc"},
		"escaped id":      {Done: true, TraceID: "<\"id\">\u2028é\xff"},
		"traced":          {Done: true, Answers: 2, ElapsedMS: 0.2, TraceID: "t1", Trace: span},
		"everything":      {Done: true, Answers: 9, Accesses: 8, Batches: 7, Tuples: 6, ElapsedMS: 5.4321, Truncated: true, Disjuncts: 3, TraceID: "t2", Trace: span},
		"empty trace":     {Done: true, Trace: &obs.SpanJSON{}},
	}
	prefix := []byte(`{"answer":["kept"]}` + "\n")
	for name, d := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(d); err != nil {
			t.Fatal(err)
		}
		got := appendDoneLine(append([]byte(nil), prefix...), &d)
		if !bytes.HasPrefix(got, prefix) {
			t.Errorf("%s: appending overwrote what the buffer held: %q", name, got)
		}
		if got = got[len(prefix):]; !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want.Bytes())
		}
	}
}
