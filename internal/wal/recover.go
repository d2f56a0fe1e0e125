package wal

import (
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

// Recovered is what Open found on disk: the tables it rebuilt, and the
// account of how, which Log.Stats reports as Recovery.
type Recovered struct {
	// Relations maps each recovered relation's name to its table, at the
	// epoch of its last record. Empty when the directory was fresh.
	Relations map[string]*storage.Table
	RecoveryStats
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
	rec := &Recovered{Relations: make(map[string]*storage.Table)}

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
		rec.Relations = loaded
		rec.UnknownRecords += unknown
		rec.HadSnapshot = true
		rec.SnapshotSeq = e.seq
		break
	}

	// Replay segments in order. The first torn/corrupt record ends replay:
	// everything after it postdates a record that never fully committed.
	for _, e := range segs {
		if rec.Truncated {
			orphan(dir, e.name, logger)
			continue
		}
		rec.SegmentsScanned++
		at, reason, err := replaySegment(filepath.Join(dir, e.name), rec, logger)
		if err != nil {
			return nil, 0, err
		}
		if at >= 0 {
			rec.Truncated = true
			logger.Warn("wal: truncating torn tail", "file", e.name, "offset", at, "reason", reason)
			if err := os.Truncate(filepath.Join(dir, e.name), at); err != nil {
				return nil, 0, fmt.Errorf("wal: truncating %s: %w", e.name, err)
			}
		}
	}

	rec.RecoveryStats.Relations = len(rec.Relations)
	rec.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
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
func loadSnapshot(path string) (map[string]*storage.Table, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return decodeSnapshot(b)
}

// decodeSnapshot rebuilds the tables a snapshot file's contents hold, and
// counts the records of unknown type it skipped.
func decodeSnapshot(b []byte) (map[string]*storage.Table, int, error) {
	out := make(map[string]*storage.Table)
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
		t := storage.NewTable(r.Relation, r.Arity)
		t.Replay(r.event())
		out[r.Relation] = t
		b = b[n:]
	}
	return out, unknown, nil
}

// replaySegment replays one segment's records into rec's tables and counts
// them, stopping at the first torn or corrupt record: it returns that
// record's byte offset and why, or −1 for a clean segment. A record of a
// relation not seen before starts a fresh table of the record's arity.
func replaySegment(path string, rec *Recovered, logger *slog.Logger) (int64, string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return -1, "", fmt.Errorf("wal: reading %s: %w", path, err)
	}
	off := int64(0)
	for len(b) > 0 {
		r, n, err := Decode(b)
		switch {
		case errors.Is(err, ErrUnknownType):
			rec.UnknownRecords++
			logger.Warn("wal: skipping record of unknown type",
				"file", filepath.Base(path), "offset", off, "type", r.Type)
			b = b[n:]
			off += int64(n)
			continue
		case errors.Is(err, ErrTorn), errors.Is(err, ErrCorrupt):
			return off, err.Error(), nil
		case err != nil:
			return -1, "", fmt.Errorf("wal: decoding %s: %w", path, err)
		}
		t := rec.Relations[r.Relation]
		if t == nil {
			t = storage.NewTable(r.Relation, r.Arity)
			rec.Relations[r.Relation] = t
		}
		switch {
		case t.Arity != r.Arity:
			logger.Warn("wal: skipping record with mismatched arity",
				"file", filepath.Base(path), "relation", r.Relation,
				"arity", r.Arity, "want", t.Arity)
			rec.RecordsSkipped++
		case t.Replay(r.event()):
			rec.RecordsReplayed++
		default:
			rec.RecordsSkipped++
		}
		b = b[n:]
		off += int64(n)
	}
	return -1, "", nil
}
