package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// answerSet is an order-independent digest of a multiset of NDJSON answer
// lines: their count and the wrapping sum of their FNV-1a hashes. A dropped,
// extra, duplicated or altered line changes it.
type answerSet struct {
	N   int
	Sum uint64
}

func (a *answerSet) add(line []byte) {
	h := fnv.New64a()
	h.Write(line)
	a.N++
	a.Sum += h.Sum64()
}

// answerLine renders one answer row exactly as /query streams it (the
// service encodes the same one-field struct with encoding/json), so expected
// and received lines hash alike without the client decoding any of them.
func answerLine(row []string) []byte {
	b, err := json.Marshal(struct {
		Answer []string `json:"answer"`
	}{row})
	if err != nil {
		panic(err) // a string slice always encodes
	}
	return b
}

// digestRows is the answerSet a reply must equal for the given answer rows.
func digestRows(rows [][]string) answerSet {
	var a answerSet
	for _, r := range rows {
		a.add(answerLine(r))
	}
	return a
}

// reply is what one /query request (or one library Execute) came back with.
type reply struct {
	Status    int // HTTP status; 200 for a library call
	Got       answerSet
	Lines     []string // the raw answer lines, kept only when the client asks
	Done      bool     // the summary line arrived: the stream is complete
	Truncated bool     // the engine cut the answers short
	ErrLine   string   // in-band {"error":...}
	Accesses  int
	TraceID   string
	Trace     *spanJSON
}

// checker is check bound to the expected answers and access count.
func (a answerSet) checker(wantAccesses int) func(*reply) string {
	return func(r *reply) string { return r.check(a, wantAccesses) }
}

// check compares a reply with ground truth and returns why it fails, or ""
// when it is correct. wantAccesses < 0 skips the access-count check.
func (r *reply) check(want answerSet, wantAccesses int) string {
	switch {
	case r.Status != 200:
		return fmt.Sprintf("status %d", r.Status)
	case r.ErrLine != "":
		return "error line: " + r.ErrLine
	case !r.Done:
		return "stream ended without its done line"
	case r.Truncated:
		return "answers truncated"
	case r.Got.N < want.N:
		return fmt.Sprintf("%d answers, want %d: rows dropped", r.Got.N, want.N)
	case r.Got.N > want.N:
		return fmt.Sprintf("%d answers, want %d: extra rows", r.Got.N, want.N)
	case r.Got.Sum != want.Sum:
		return "answer rows differ from ground truth"
	case wantAccesses >= 0 && r.Accesses != wantAccesses:
		return fmt.Sprintf("%d accesses, want %d", r.Accesses, wantAccesses)
	}
	return ""
}
