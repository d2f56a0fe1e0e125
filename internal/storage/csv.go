package storage

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
)

// utf8BOM is the byte-order mark some spreadsheet exports prepend.
var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// ReadCSVRows parses CSV data into rows of the given arity, for callers
// that batch-apply them to a table (the ingestion API, the service's CSV
// seed). Every record must have exactly arity fields; errors name the
// offending line. The reader tolerates the rough edges of hand-edited and
// exported files: a leading UTF-8 byte-order mark, leading whitespace before
// fields, and blank (or whitespace-only) lines anywhere in the file. Quoted
// content — an empty field ("") or a whitespace-only line inside a
// multi-line quoted field — is data, not blankness, and is preserved.
func ReadCSVRows(name string, arity int, r io.Reader) ([]Row, error) {
	var rows []Row
	br := bufio.NewReader(r)
	if head, err := br.Peek(len(utf8BOM)); err == nil && bytes.Equal(head, utf8BOM) {
		br.Discard(len(utf8BOM))
	}
	cr := csv.NewReader(&blankLineEraser{br: br})
	cr.FieldsPerRecord = -1 // arity is validated below, with line numbers
	cr.TrimLeadingSpace = true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", name, err) // csv errors carry the line
		}
		if len(rec) != arity {
			line, _ := cr.FieldPos(0)
			return nil, fmt.Errorf("table %s: line %d: %d field(s), want %d",
				name, line, len(rec), arity)
		}
		rows = append(rows, Row(rec))
	}
	return rows, nil
}

// blankLineEraser streams its input line by line, emptying whitespace-only
// lines that lie outside quoted fields: encoding/csv then drops them
// natively while still counting them for error line numbers. Lines inside a
// quoted multi-line field pass through untouched (quote state is tracked
// across lines). Memory use is bounded by the longest line, not the file.
type blankLineEraser struct {
	br      *bufio.Reader
	buf     []byte // pending output
	inQuote bool
	err     error // terminal error (including io.EOF), after buf drains
}

func (e *blankLineEraser) Read(p []byte) (int, error) {
	for len(e.buf) == 0 {
		if e.err != nil {
			return 0, e.err
		}
		line, err := e.br.ReadBytes('\n')
		if err != nil {
			e.err = err
		}
		if len(line) == 0 {
			continue
		}
		// A whitespace-only line contains no quote, so erasing it never
		// changes the quote state tracked below.
		if e.inQuote || len(bytes.TrimSpace(line)) > 0 {
			e.buf = line
		} else if line[len(line)-1] == '\n' {
			e.buf = line[len(line)-1:] // keep the newline for line counting
		}
		for _, b := range line {
			if b == '"' {
				e.inQuote = !e.inQuote
			}
		}
	}
	n := copy(p, e.buf)
	e.buf = e.buf[n:]
	return n, nil
}
