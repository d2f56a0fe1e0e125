package service

import "encoding/json"

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
