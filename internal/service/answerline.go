package service

import (
	"encoding/json"
	"math"
	"strconv"
)

// answerSpill bounds the rendered bytes /query holds back within one burst:
// a burst larger than this leaves in several writes, so the buffer of a
// request stays bounded however many answers one round trip derives.
const answerSpill = 32 << 10

// appendAnswerLine appends the NDJSON frame of one answer — byte for byte
// what json.Encoder.Encode(answerLine{Answer: vals}) writes, newline
// included, for a non-nil vals (FuzzAnswerLine holds it to that) — without
// reflection or an intermediate value.
func appendAnswerLine(dst []byte, vals []string) []byte {
	dst = append(dst, `{"answer":[`...)
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, v)
	}
	return append(dst, "]}\n"...)
}

// appendJSONString appends s as a JSON string the way encoding/json
// renders it with HTML escaping on (the Encoder's default). Printable ASCII
// that needs no escape — nearly every value — is copied between quotes;
// anything else (quotes, backslashes, control bytes, <>&, non-ASCII and
// with it U+2028/2029 and invalid UTF-8) is left to encoding/json itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendDoneLine appends the NDJSON summary frame of a query — byte for byte
// what json.Encoder.Encode(d) writes, newline included — rendering the
// scalar members without reflection; the span tree of a traced request,
// rare and arbitrarily deep, is left to encoding/json.
func appendDoneLine(dst []byte, d *doneLine) []byte {
	dst = append(dst, `{"done":`...)
	dst = strconv.AppendBool(dst, d.Done)
	dst = append(dst, `,"answers":`...)
	dst = strconv.AppendInt(dst, int64(d.Answers), 10)
	dst = append(dst, `,"accesses":`...)
	dst = strconv.AppendInt(dst, int64(d.Accesses), 10)
	dst = append(dst, `,"batches":`...)
	dst = strconv.AppendInt(dst, int64(d.Batches), 10)
	dst = append(dst, `,"tuples":`...)
	dst = strconv.AppendInt(dst, int64(d.Tuples), 10)
	dst = append(dst, `,"elapsed_ms":`...)
	dst = appendJSONFloat(dst, d.ElapsedMS)
	if d.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	if d.Disjuncts != 0 {
		dst = append(dst, `,"disjuncts":`...)
		dst = strconv.AppendInt(dst, int64(d.Disjuncts), 10)
	}
	if d.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = appendJSONString(dst, d.TraceID)
	}
	if d.Trace != nil {
		// Span attributes are open-ended; one encoding/json refuses costs
		// the request its trace, not its summary.
		if trace, err := json.Marshal(d.Trace); err == nil {
			dst = append(dst, `,"trace":`...)
			dst = append(dst, trace...)
		}
	}
	return append(dst, "}\n"...)
}

// appendJSONFloat appends a finite f the way encoding/json renders a
// float64: shortest decimal that round-trips, exponent form only for very
// small and very large magnitudes, and then without a leading zero in a
// two-digit exponent.
func appendJSONFloat(dst []byte, f float64) []byte {
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
