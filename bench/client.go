package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// recorder collects what the client measured in one phase.
type recorder struct {
	origin time.Time // when the phase began; sample offsets count from it

	queryMS, firstMS, ingestMS []float64 // latencies of timed operations
	queryAtS                   []float64 // when each timed query ended, seconds since origin

	attempted, failed int
	failure           string // the first failure's reason, for the report

	accesses int64 // accesses the timed queries reported
	batches  int64 // source round trips the library path reported
	rows     int64 // rows the timed ingests applied
	rowBytes int64 // bytes of row data the timed ingests carried
}

func (r *recorder) fail(why string) {
	r.failed++
	if r.failure == "" {
		r.failure = why
	}
}

// addQuery records one timed, checked query.
func (r *recorder) addQuery(start time.Time, first, total time.Duration, accesses int) {
	r.queryMS = append(r.queryMS, ms(total))
	r.firstMS = append(r.firstMS, ms(first))
	r.queryAtS = append(r.queryAtS, start.Add(total).Sub(r.origin).Seconds())
	r.accesses += int64(accesses)
}

// client is the closed-loop caller: it sends its next operation only after
// the previous reply, over one keep-alive connection. There is one per run:
// the sandbox has two cores, and the client, the two nodes' handlers and the
// garbage collector already share them.
type client struct {
	hc  *http.Client
	rng *rand.Rand
	rec *recorder
	br  *bufio.Reader
	ops int // operations started, the source of operation ids
	// keepLines makes query keep the raw answer lines for a caller that
	// checks values and not just a digest (ingest-rw's reads).
	keepLines bool
}

func newClient(seed int64) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		rng: rand.New(rand.NewSource(seed * 1000003)),
		rec: &recorder{},
		br:  bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// nextOp returns a fresh operation id.
func (c *client) nextOp() string {
	c.ops++
	return strconv.Itoa(c.ops)
}

var (
	answerPrefix = []byte(`{"answer":`)
	donePrefix   = []byte(`{"done":`)
	errorPrefix  = []byte(`{"error":`)
)

// doneLine is the summary line of /query, as far as the bench reads it.
type doneLine struct {
	Done      bool      `json:"done"`
	Accesses  int       `json:"accesses"`
	Truncated bool      `json:"truncated"`
	TraceID   string    `json:"trace_id"`
	Trace     *spanJSON `json:"trace"`
}

// query sends GET url (a /query request) and reads its NDJSON stream. It
// returns the reply, the time from sending to the first response line, and
// the time to the end of the stream. opID, when set, rides the opHeader.
func (c *client) query(ctx context.Context, url, opID string) (rep reply, first, total time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return rep, 0, 0, err
	}
	if opID != "" {
		req.Header.Set(opHeader, opID)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return rep, 0, 0, err
	}
	defer resp.Body.Close()
	rep.Status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status already fails the op
		rep.ErrLine = string(bytes.TrimSpace(msg))
		return rep, 0, time.Since(start), nil
	}
	c.br.Reset(resp.Body)
	err = readStream(c.br, &rep, c.keepLines, func() {
		if first == 0 {
			first = time.Since(start)
		}
	})
	return rep, first, time.Since(start), err
}

// readStream folds an NDJSON /query stream into rep, calling onLine as
// each line arrives. A stream that just stops leaves rep.Done false.
func readStream(br *bufio.Reader, rep *reply, keepLines bool, onLine func()) error {
	var long []byte
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) { // a done line carrying a big trace
			long = append(long, line...)
			continue
		}
		if len(long) > 0 {
			long = append(long, line...)
			line, long = long, long[:0]
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) > 0 {
			onLine()
			switch {
			case bytes.HasPrefix(line, answerPrefix):
				rep.Got.add(line)
				if keepLines {
					rep.Lines = append(rep.Lines, string(line))
				}
			case bytes.HasPrefix(line, donePrefix):
				var d doneLine
				if jerr := json.Unmarshal(line, &d); jerr != nil {
					return fmt.Errorf("done line: %w", jerr)
				}
				rep.Done, rep.Truncated = d.Done, d.Truncated
				rep.Accesses = d.Accesses
				rep.TraceID, rep.Trace = d.TraceID, d.Trace
			case bytes.HasPrefix(line, errorPrefix):
				rep.ErrLine = string(line)
			default:
				return fmt.Errorf("unexpected stream line %.80q", line)
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ingestReply is the /ingest response body, as far as the bench reads it.
type ingestReply struct {
	Applied   int     `json:"applied"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ingest posts one NDJSON batch to url (an /ingest request).
func (c *client) ingest(ctx context.Context, url string, body []byte, opID string) (ir ingestReply, status int, total time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return ir, 0, 0, err
	}
	if opID != "" {
		req.Header.Set(opHeader, opID)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return ir, 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	total = time.Since(start)
	if err != nil {
		return ir, resp.StatusCode, total, err
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ir); err != nil {
			return ir, resp.StatusCode, total, fmt.Errorf("ingest reply: %w", err)
		}
	}
	return ir, resp.StatusCode, total, nil
}

// ms converts a duration to float milliseconds, us to microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
