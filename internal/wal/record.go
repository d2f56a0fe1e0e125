// Package wal gives toorjahd durable ingestion: a write-ahead log that
// appends one checksummed record per applied mutation batch, periodic
// epoch-stamped snapshot files of each relation's live rows, and startup
// recovery that loads the latest valid snapshot and replays the WAL tail.
//
// The on-disk unit is the frame:
//
//	uint32 payload length (big endian)
//	uint32 CRC-32 (IEEE) of the payload
//	payload
//
// and the payload is a canonical encoding of one Record:
//
//	byte   record type (1 insert, 2 delete, 3 snapshot-relation)
//	uint64 epoch after the batch applied (big endian)
//	uint16 relation name length + name bytes
//	uint16 arity
//	uint32 row count
//	rows:  arity × (uint32 value length + value bytes) each
//
// The encoding is canonical — for every decodable frame, re-encoding the
// decoded record reproduces the input bytes exactly — which is what makes
// the encode↔decode fuzz round-trip meaningful.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"toorjah/internal/storage"
)

// Record types. Insert and delete records live in log segments; snapshot
// records (one per relation, carrying the full live row set) live in
// snapshot files. Unknown types are tolerated on read — a checksummed
// frame of an unrecognized type is skipped with a warning, so an old
// binary can replay a newer log's tail.
const (
	TypeInsert       byte = 1
	TypeDelete       byte = 2
	TypeSnapshotRows byte = 3
)

// Frame layout constants.
const (
	frameHeader = 8 // uint32 length + uint32 CRC

	// maxPayload bounds a single record. A corrupt length prefix must not
	// make recovery allocate gigabytes before the checksum can refute it.
	maxPayload = 1 << 28 // 256 MiB

	maxRelationName = 1 << 16 // encoded in uint16
	maxArity        = 1 << 16 // encoded in uint16
)

// Decode errors. ErrTorn means the buffer ends before the frame does — the
// classic partially-written tail record; recovery truncates there.
// ErrCorrupt means the frame is self-inconsistent (bad checksum, impossible
// length, malformed payload). ErrUnknownType means the frame checksums
// clean but carries a record type this binary does not understand; the
// frame length is still returned so the reader can skip it.
var (
	ErrTorn        = errors.New("wal: torn record")
	ErrCorrupt     = errors.New("wal: corrupt record")
	ErrUnknownType = errors.New("wal: unknown record type")
)

// Record is one logged event: a mutation batch applied to a relation at a
// given epoch, or one relation's full live contents inside a snapshot.
type Record struct {
	Type     byte
	Relation string
	Arity    int
	Epoch    uint64
	Rows     []storage.Row
}

// event is the batch r logged, in the form storage.Table.Replay applies; a
// snapshot record inserts every live row.
func (r Record) event() storage.CommitEvent {
	op := storage.OpInsert
	if r.Type == TypeDelete {
		op = storage.OpDelete
	}
	return storage.CommitEvent{Relation: r.Relation, Arity: r.Arity, Op: op, Epoch: r.Epoch, Rows: r.Rows}
}

// AppendEncode appends the framed encoding of r to dst. Encoding fails
// only on records the log never produces (oversized names, rows that
// disagree with the arity, zero arity with rows) — the error keeps a
// corrupted in-memory event out of the log instead of panicking a server.
func AppendEncode(dst []byte, r Record) ([]byte, error) {
	if len(r.Relation) == 0 || len(r.Relation) >= maxRelationName {
		return dst, fmt.Errorf("wal: relation name length %d out of range", len(r.Relation))
	}
	if r.Arity <= 0 || r.Arity >= maxArity {
		return dst, fmt.Errorf("wal: arity %d out of range", r.Arity)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	dst = append(dst, r.Type)
	dst = binary.BigEndian.AppendUint64(dst, r.Epoch)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Relation)))
	dst = append(dst, r.Relation...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(r.Arity))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Rows)))
	for _, row := range r.Rows {
		if len(row) != r.Arity {
			return dst[:start], fmt.Errorf("wal: row arity %d in a record of arity %d", len(row), r.Arity)
		}
		for _, v := range row {
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
			dst = append(dst, v...)
		}
	}
	payload := dst[start+frameHeader:]
	if len(payload) > maxPayload {
		return dst[:start], fmt.Errorf("wal: payload %d bytes exceeds the %d record cap", len(payload), maxPayload)
	}
	if len(r.Rows) > maxRows(len(payload), r.Arity) {
		return dst[:start], fmt.Errorf("wal: row count %d exceeds the record cap", len(r.Rows))
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// maxRows bounds the row count a payload of a given size can legitimately
// carry: every row costs at least 4 bytes per column on the wire. The
// bound defeats length-prefix inflation — a checksummed-but-hostile frame
// cannot make the decoder allocate rows it has no bytes for.
func maxRows(payloadLen, arity int) int {
	if arity <= 0 {
		return 0
	}
	return payloadLen / (4 * arity)
}

// Decode reads one frame from the front of b. On success it returns the
// record and the total frame size in bytes. ErrTorn and ErrCorrupt return
// n = 0; ErrUnknownType returns the frame size so callers can skip the
// frame while logging it.
func Decode(b []byte) (Record, int, error) {
	if len(b) < frameHeader {
		return Record{}, 0, ErrTorn
	}
	payloadLen := int(binary.BigEndian.Uint32(b))
	if payloadLen > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: payload length %d exceeds the %d cap", ErrCorrupt, payloadLen, maxPayload)
	}
	if len(b) < frameHeader+payloadLen {
		return Record{}, 0, ErrTorn
	}
	sum := binary.BigEndian.Uint32(b[4:])
	payload := b[frameHeader : frameHeader+payloadLen]
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	n := frameHeader + payloadLen
	rec, err := decodePayload(payload)
	if err != nil {
		if errors.Is(err, ErrUnknownType) {
			return rec, n, err
		}
		return Record{}, 0, err
	}
	return rec, n, nil
}

// decodePayload parses a checksum-verified payload. Any malformation past
// this point is ErrCorrupt: the frame was written whole, but not by this
// encoder.
func decodePayload(p []byte) (Record, error) {
	if len(p) < 1+8+2 {
		return Record{}, fmt.Errorf("%w: payload header short", ErrCorrupt)
	}
	var r Record
	r.Type = p[0]
	r.Epoch = binary.BigEndian.Uint64(p[1:])
	nameLen := int(binary.BigEndian.Uint16(p[9:]))
	p = p[11:]
	if len(p) < nameLen+2+4 {
		return Record{}, fmt.Errorf("%w: truncated relation name", ErrCorrupt)
	}
	if nameLen == 0 {
		return Record{}, fmt.Errorf("%w: empty relation name", ErrCorrupt)
	}
	r.Relation = string(p[:nameLen])
	r.Arity = int(binary.BigEndian.Uint16(p[nameLen:]))
	nrows := int(binary.BigEndian.Uint32(p[nameLen+2:]))
	p = p[nameLen+2+4:]
	if r.Type != TypeInsert && r.Type != TypeDelete && r.Type != TypeSnapshotRows {
		return r, fmt.Errorf("%w: type %d", ErrUnknownType, r.Type)
	}
	if r.Arity == 0 {
		return Record{}, fmt.Errorf("%w: zero arity", ErrCorrupt)
	}
	if nrows > maxRows(len(p), r.Arity) {
		return Record{}, fmt.Errorf("%w: row count %d exceeds payload capacity", ErrCorrupt, nrows)
	}
	if nrows > 0 {
		r.Rows = make([]storage.Row, 0, nrows)
	}
	for i := 0; i < nrows; i++ {
		row := make(storage.Row, r.Arity)
		for c := 0; c < r.Arity; c++ {
			if len(p) < 4 {
				return Record{}, fmt.Errorf("%w: truncated row", ErrCorrupt)
			}
			vlen := int(binary.BigEndian.Uint32(p))
			p = p[4:]
			if len(p) < vlen {
				return Record{}, fmt.Errorf("%w: truncated value", ErrCorrupt)
			}
			row[c] = string(p[:vlen])
			p = p[vlen:]
		}
		r.Rows = append(r.Rows, row)
	}
	if len(p) != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return r, nil
}
