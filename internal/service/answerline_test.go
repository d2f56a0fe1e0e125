package service

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
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
