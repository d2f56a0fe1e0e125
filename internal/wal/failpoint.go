package wal

import (
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// FailpointEnv names the environment variable the crash harness uses to
// make a toorjahd child die at a byte-exact point in its own WAL I/O:
//
//	TOORJAH_WAL_FAILPOINT=crash-after-bytes=N   die mid-write after N
//	                                            total appended bytes,
//	                                            leaving a torn record
//	TOORJAH_WAL_FAILPOINT=crash-in-fsync=N      die entering the Nth fsync
//
// Death is SIGKILL to self — no deferred cleanup, no flush, the same
// no-goodbye exit a kill -9 or OOM kill delivers. The variable is read
// once at Open; production processes never set it.
const FailpointEnv = "TOORJAH_WAL_FAILPOINT"

const (
	failAfterBytes = iota + 1
	failInFsync
)

type failpoint struct {
	mode  int
	limit int64
	count atomic.Int64
}

// failpointFromEnv parses FailpointEnv, returning nil (no failpoint) when
// unset or malformed — a typo must not arm a crash in a real deployment.
func failpointFromEnv() *failpoint {
	spec := os.Getenv(FailpointEnv)
	if spec == "" {
		return nil
	}
	mode := 0
	rest := ""
	if v, ok := strings.CutPrefix(spec, "crash-after-bytes="); ok {
		mode, rest = failAfterBytes, v
	} else if v, ok := strings.CutPrefix(spec, "crash-in-fsync="); ok {
		mode, rest = failInFsync, v
	} else {
		return nil
	}
	limit, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || limit <= 0 {
		return nil
	}
	return &failpoint{mode: mode, limit: limit}
}

// write appends b to f, dying mid-write if the configured byte threshold
// falls inside b: the prefix up to the threshold is written (and pushed to
// the OS so the torn bytes actually reach the file), then the process
// SIGKILLs itself. The result is exactly the torn final record recovery
// must truncate.
func (fp *failpoint) write(f *os.File, b []byte) (int, error) {
	if fp == nil || fp.mode != failAfterBytes {
		return f.Write(b)
	}
	already := fp.count.Add(int64(len(b))) - int64(len(b))
	if already+int64(len(b)) < fp.limit {
		return f.Write(b)
	}
	keep := fp.limit - already
	if keep < 0 {
		keep = 0
	}
	if keep > 0 {
		// unchecked: the process dies on the next line; the torn prefix is the point
		_, _ = f.Write(b[:keep])
	}
	die()
	return int(keep), nil
}

// beforeSync counts fsyncs and dies entering the configured one — the
// record bytes are written but the sync never completes, modeling a crash
// in the middle of the commit path.
func (fp *failpoint) beforeSync() {
	if fp == nil || fp.mode != failInFsync {
		return
	}
	if fp.count.Add(1) == fp.limit {
		die()
	}
}

// die delivers SIGKILL to the current process: unconditional, untrappable,
// identical to the kill -9 the crash harness sends externally.
func die() {
	// unchecked: if the kill fails, the select below blocks forever instead.
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable unless the kill syscall itself failed
}
