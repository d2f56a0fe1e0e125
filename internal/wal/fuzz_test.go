package wal

import (
	"bytes"
	"errors"
	"hash/crc32"
	"reflect"
	"sort"
	"testing"

	"toorjah/internal/storage"
)

// FuzzWALDecode drives the frame decoder with arbitrary bytes. The
// invariants: decoding never panics, never returns a record whose payload
// fails its checksum, and every successfully decoded record re-encodes to
// exactly the bytes it was decoded from (the encoding is canonical — which
// is what lets recovery compute truncation offsets from re-encodable
// records). Seeds cover each record type, empty rows, and binary values.
func FuzzWALDecode(f *testing.F) {
	seed := func(r Record) {
		b, err := AppendEncode(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(Record{Type: TypeInsert, Relation: "pub", Arity: 2, Epoch: 2,
		Rows: []storage.Row{{"a", "1"}, {"b\x00c", ""}}})
	seed(Record{Type: TypeDelete, Relation: "r", Arity: 1, Epoch: 9,
		Rows: []storage.Row{{"gone"}}})
	seed(Record{Type: TypeSnapshotRows, Relation: "empty", Arity: 3, Epoch: 1})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 42})

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := Decode(b)
		if err != nil {
			if errors.Is(err, ErrUnknownType) {
				// Skippable: n must cover a checksum-clean frame inside b.
				if n < frameHeader || n > len(b) {
					t.Fatalf("unknown-type frame size %d out of range (len %d)", n, len(b))
				}
			} else if n != 0 {
				t.Fatalf("error %v with nonzero frame size %d", err, n)
			}
			return
		}
		if n < frameHeader || n > len(b) {
			t.Fatalf("frame size %d out of range (len %d)", n, len(b))
		}
		// The decoded record's payload must match the checksum it carried.
		re, err := AppendEncode(nil, rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("re-encode differs from input frame:\n in: %x\nout: %x", b[:n], re)
		}
		sum := crc32.ChecksumIEEE(re[frameHeader:])
		if got := crc32.ChecksumIEEE(b[frameHeader:n]); got != sum {
			t.Fatalf("returned record fails its checksum: %08x vs %08x", got, sum)
		}
	})
}

// FuzzSnapshotLoad drives the snapshot loader with arbitrary file contents.
// The invariants: loading never panics, and a snapshot that loads, encoded
// again the way Log writes one — a record per relation — loads to the same
// states. Seeds cover a well-formed snapshot, a torn one, a delete record
// inside a snapshot and an empty file.
func FuzzSnapshotLoad(f *testing.F) {
	var snap []byte
	for _, r := range []Record{
		{Type: TypeSnapshotRows, Relation: "pub", Arity: 2, Epoch: 3, Rows: []storage.Row{{"a", "1"}, {"b\x00c", ""}, {"a", "1"}}},
		{Type: TypeSnapshotRows, Relation: "empty", Arity: 1, Epoch: 1},
		{Type: TypeDelete, Relation: "r", Arity: 1, Epoch: 9, Rows: []storage.Row{{"gone"}}},
	} {
		b, err := AppendEncode(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(snap, b...))
		snap = append(snap, b...)
	}
	f.Add(snap[:len(snap)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		loaded, _, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		states := snapshotStates(loaded)
		out, err := encodeSnapshot(states)
		if err != nil {
			t.Fatalf("a loaded snapshot does not encode: %v", err)
		}
		again, _, err := decodeSnapshot(out)
		if err != nil {
			t.Fatalf("a re-encoded snapshot does not load: %v", err)
		}
		if got := snapshotStates(again); !reflect.DeepEqual(got, states) {
			t.Fatalf("re-encoded and loaded again:\n got %+v\nwant %+v", got, states)
		}
	})
}

// snapshotStates lists what a loaded snapshot holds, by relation name.
func snapshotStates(loaded map[string]*storage.Table) []RelationState {
	var out []RelationState
	for name, t := range loaded {
		snap := t.Snapshot()
		out = append(out, RelationState{Name: name, Arity: t.Arity, Epoch: snap.Epoch(), Rows: snap.Rows()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
