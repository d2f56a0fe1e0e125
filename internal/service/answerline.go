package service

import (
	"encoding/json"
	"strconv"

	"toorjah/internal/ndjson"
)

// appendAnswerLine appends the NDJSON frame of one answer — byte for byte
// what json.Encoder.Encode(answerLine{Answer: vals}) writes, newline
// included, for a non-nil vals (FuzzAnswerLine holds it to that) — without
// reflection or an intermediate value.
func appendAnswerLine(dst []byte, vals []string) []byte {
	dst = append(dst, `{"answer":`...)
	dst = ndjson.AppendStrings(dst, vals)
	return append(dst, "}\n"...)
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
	dst = ndjson.AppendFloat(dst, d.ElapsedMS)
	if d.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	if d.Disjuncts != 0 {
		dst = append(dst, `,"disjuncts":`...)
		dst = strconv.AppendInt(dst, int64(d.Disjuncts), 10)
	}
	if d.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = ndjson.AppendString(dst, d.TraceID)
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

// appendIngestAck appends the payload answering one applied /ingest — byte
// for byte what json.Encoder.Encode(a) writes, newline included.
func appendIngestAck(dst []byte, a *ingestResponse) []byte {
	dst = append(dst, `{"relation":`...)
	dst = ndjson.AppendString(dst, a.Relation)
	dst = append(dst, `,"op":`...)
	dst = ndjson.AppendString(dst, a.Op)
	dst = append(dst, `,"rows":`...)
	dst = strconv.AppendInt(dst, int64(a.Rows), 10)
	dst = append(dst, `,"applied":`...)
	dst = strconv.AppendInt(dst, int64(a.Applied), 10)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, a.Epoch, 10)
	dst = append(dst, `,"elapsed_ms":`...)
	dst = ndjson.AppendFloat(dst, a.ElapsedMS)
	return append(dst, "}\n"...)
}
