package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"toorjah/internal/storage"
)

// Recovered is the durable state Open found: per-relation live rows and
// epochs, ready for storage.RestoreTable, plus an account of how they were
// reassembled.
type Recovered struct {
	// Relations maps name to recovered state. Empty when the directory
	// was fresh.
	Relations map[string]*RelationState

	HadSnapshot     bool
	SnapshotSeq     uint64
	SegmentsScanned int
	Records         int  // tail records applied on top of the snapshot
	Skipped         int  // records at or below their relation's snapshot epoch
	Unknown         int  // checksummed records of unknown type, skipped
	Truncated       bool // a torn/corrupt tail was cut from a segment
	Duration        time.Duration
}

func (r *Recovered) stats() RecoveryStats {
	return RecoveryStats{
		HadSnapshot:     r.HadSnapshot,
		SnapshotSeq:     r.SnapshotSeq,
		SegmentsScanned: r.SegmentsScanned,
		RecordsReplayed: r.Records,
		RecordsSkipped:  r.Skipped,
		UnknownRecords:  r.Unknown,
		Truncated:       r.Truncated,
		Relations:       len(r.Relations),
		DurationMS:      float64(r.Duration) / float64(time.Millisecond),
	}
}

// relReplay accumulates one relation's state during replay, keeping live
// rows in first-insert order so a restored table enumerates like the
// original.
type relReplay struct {
	arity int
	epoch uint64
	order []storage.Row  // live rows; deleted slots are nil
	index map[string]int // row key -> slot in order
}

// rowKey builds a collision-free map key from a row's raw values
// (length-prefixed, so value boundaries cannot alias).
func rowKey(r storage.Row) string {
	var b []byte
	for _, v := range r {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return string(b)
}

// apply folds one record into the replay state. Records at or below the
// relation's current epoch are duplicates of state already restored (the
// snapshot, or a record replayed from an earlier segment) and are skipped —
// this is what makes replay after a covering snapshot idempotent.
func (s *relReplay) apply(rec Record) (applied bool) {
	if rec.Epoch <= s.epoch {
		return false
	}
	switch rec.Type {
	case TypeSnapshotRows:
		s.order = s.order[:0]
		s.index = make(map[string]int, len(rec.Rows))
		for _, row := range rec.Rows {
			if _, dup := s.index[rowKey(row)]; dup {
				continue
			}
			s.index[rowKey(row)] = len(s.order)
			s.order = append(s.order, row)
		}
	case TypeInsert:
		if s.index == nil {
			s.index = make(map[string]int, len(rec.Rows))
		}
		for _, row := range rec.Rows {
			k := rowKey(row)
			if _, live := s.index[k]; live {
				continue
			}
			s.index[k] = len(s.order)
			s.order = append(s.order, row)
		}
	case TypeDelete:
		for _, row := range rec.Rows {
			k := rowKey(row)
			if slot, live := s.index[k]; live {
				s.order[slot] = nil
				delete(s.index, k)
			}
		}
	}
	s.epoch = rec.Epoch
	return true
}

func (s *relReplay) state(name string) *RelationState {
	rows := make([]storage.Row, 0, len(s.index))
	for _, row := range s.order {
		if row != nil {
			rows = append(rows, row)
		}
	}
	return &RelationState{Name: name, Arity: s.arity, Epoch: s.epoch, Rows: rows}
}

// seqEntry is one sequence-numbered file in the log directory.
type seqEntry struct {
	name string
	seq  uint64
}

// listSeq returns the prefix/suffix-matching files of dir in ascending
// sequence order, ignoring names that do not parse (temp files, strays).
func listSeq(dir, prefix, suffix string) ([]seqEntry, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []seqEntry
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		mid := name[len(prefix) : len(name)-len(suffix)]
		seq, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, seqEntry{name: name, seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// recoverState reassembles durable state from dir: newest loadable
// snapshot first (corrupt snapshots fall back to older ones), then every
// segment in sequence order replayed on top, truncating the first torn or
// corrupt record and orphaning anything after it. It returns the highest
// sequence number seen across live and archived files, so new files never
// collide with old ones. Only I/O failures are errors — corruption is
// recovered around, not fatal.
func recoverState(dir string, logger *slog.Logger) (*Recovered, uint64, error) {
	start := time.Now()
	rec := &Recovered{Relations: make(map[string]*RelationState)}

	segs, err := listSeq(dir, "wal-", ".log")
	if err != nil {
		return nil, 0, fmt.Errorf("wal: scanning %s: %w", dir, err)
	}
	snaps, err := listSeq(dir, "snap-", ".snap")
	if err != nil {
		return nil, 0, fmt.Errorf("wal: scanning %s: %w", dir, err)
	}
	maxSeq := uint64(0)
	for _, e := range segs {
		maxSeq = max(maxSeq, e.seq)
	}
	for _, e := range snaps {
		maxSeq = max(maxSeq, e.seq)
	}
	// Archived files left the live directory, but their sequence numbers
	// must stay retired.
	for _, sub := range []struct{ prefix, suffix string }{{"wal-", ".log"}, {"snap-", ".snap"}} {
		if arch, err := listSeq(filepath.Join(dir, "archive"), sub.prefix, sub.suffix); err == nil {
			for _, e := range arch {
				maxSeq = max(maxSeq, e.seq)
			}
		}
	}

	states := make(map[string]*relReplay)

	// Newest loadable snapshot wins; a snapshot that fails its checksums
	// is logged and skipped in favor of an older one (replay of the full
	// segment history behind it restores the same state).
	for i := len(snaps) - 1; i >= 0; i-- {
		e := snaps[i]
		loaded, unknown, err := loadSnapshot(filepath.Join(dir, e.name))
		if err != nil {
			logger.Warn("wal: snapshot unreadable, falling back", "file", e.name, "err", err)
			continue
		}
		for name, s := range loaded {
			states[name] = s
		}
		rec.Unknown += unknown
		rec.HadSnapshot = true
		rec.SnapshotSeq = e.seq
		break
	}

	// Replay segments in order. The first torn/corrupt record ends replay:
	// everything after it postdates a record that never fully committed.
	truncated := false
	for _, e := range segs {
		if truncated {
			orphan(dir, e.name, logger)
			continue
		}
		rec.SegmentsScanned++
		res, err := replaySegment(filepath.Join(dir, e.name), states, logger)
		if err != nil {
			return nil, 0, err
		}
		rec.Records += res.applied
		rec.Skipped += res.skipped
		rec.Unknown += res.unknown
		if res.truncatedAt >= 0 {
			truncated = true
			rec.Truncated = true
			logger.Warn("wal: truncating torn tail",
				"file", e.name, "offset", res.truncatedAt, "reason", res.truncateReason)
			if err := os.Truncate(filepath.Join(dir, e.name), res.truncatedAt); err != nil {
				return nil, 0, fmt.Errorf("wal: truncating %s: %w", e.name, err)
			}
		}
	}

	for name, s := range states {
		rec.Relations[name] = s.state(name)
	}
	rec.Duration = time.Since(start)
	return rec, maxSeq, nil
}

// orphan renames a segment that postdates a truncation point out of the
// live directory — its records depend on a record that never committed, so
// no future recovery may replay it, but the bytes are kept for forensics.
func orphan(dir, name string, logger *slog.Logger) {
	logger.Warn("wal: orphaning segment past a truncated record", "file", name)
	to := filepath.Join(dir, "archive", name+".orphan")
	if err := os.Rename(filepath.Join(dir, name), to); err != nil {
		logger.Error("wal: orphan move failed", "file", name, "err", err)
	}
}

// loadSnapshot reads one snapshot file. Unlike segment replay, any tear or
// corruption invalidates the whole file (snapshots are written atomically,
// so damage means the file cannot be trusted at all).
func loadSnapshot(path string) (map[string]*relReplay, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return decodeSnapshot(b)
}

// decodeSnapshot reads a snapshot file's contents.
func decodeSnapshot(b []byte) (map[string]*relReplay, int, error) {
	out := make(map[string]*relReplay)
	unknown := 0
	for len(b) > 0 {
		r, n, err := Decode(b)
		if errors.Is(err, ErrUnknownType) {
			unknown++
			b = b[n:]
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		if r.Type != TypeSnapshotRows {
			return nil, 0, fmt.Errorf("wal: record type %d inside a snapshot file", r.Type)
		}
		s := &relReplay{arity: r.Arity}
		s.apply(r)
		out[r.Relation] = s
		b = b[n:]
	}
	return out, unknown, nil
}

// segmentResult is one segment's replay outcome. truncatedAt < 0 means the
// segment was clean.
type segmentResult struct {
	applied, skipped, unknown int
	truncatedAt               int64
	truncateReason            string
}

// replaySegment folds one segment's records into states, stopping at the
// first torn or corrupt record and reporting its byte offset.
func replaySegment(path string, states map[string]*relReplay, logger *slog.Logger) (segmentResult, error) {
	res := segmentResult{truncatedAt: -1}
	b, err := os.ReadFile(path)
	if err != nil {
		return res, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	off := int64(0)
	for len(b) > 0 {
		r, n, err := Decode(b)
		switch {
		case errors.Is(err, ErrUnknownType):
			res.unknown++
			logger.Warn("wal: skipping record of unknown type",
				"file", filepath.Base(path), "offset", off, "type", r.Type)
			b = b[n:]
			off += int64(n)
			continue
		case errors.Is(err, ErrTorn), errors.Is(err, ErrCorrupt):
			res.truncatedAt = off
			res.truncateReason = err.Error()
			return res, nil
		case err != nil:
			return res, fmt.Errorf("wal: decoding %s: %w", path, err)
		}
		s := states[r.Relation]
		if s == nil {
			s = &relReplay{arity: r.Arity}
			states[r.Relation] = s
		}
		if s.arity != r.Arity {
			logger.Warn("wal: skipping record with mismatched arity",
				"file", filepath.Base(path), "relation", r.Relation,
				"arity", r.Arity, "want", s.arity)
			res.skipped++
		} else if s.apply(r) {
			res.applied++
		} else {
			res.skipped++
		}
		b = b[n:]
		off += int64(n)
	}
	return res, nil
}
