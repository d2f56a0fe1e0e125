package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"toorjah"
	"toorjah/internal/schema"
	"toorjah/internal/storage"
	"toorjah/internal/wal"
)

// The crash rounds prove the durability contract across a process boundary:
// a round re-execs this test binary as a real durable toorjahd child, storms
// it with unique insert batches over HTTP, SIGKILLs it at a random point (or
// lets a WAL failpoint kill it mid-write or mid-fsync), restarts it from the
// same data directory, and compares the recovered state with a never-crashed
// twin fed exactly the batches that survived:
//
//   - every acknowledged batch is fully present after the restart (an ack
//     means the WAL record was written before the HTTP response),
//   - no batch is partially applied (a torn final record is truncated whole),
//   - rows and epochs equal the twin's.

// Environment variables steering a re-exec'd crash child.
const (
	crashChildEnv    = "TOORJAH_CRASH_CHILD"
	crashDirEnv      = "TOORJAH_CRASH_DIR"
	crashSchemaEnv   = "TOORJAH_CRASH_SCHEMA"
	crashPortFileEnv = "TOORJAH_CRASH_PORTFILE"
	crashFsyncEnv    = "TOORJAH_CRASH_FSYNC"
)

const (
	// crashSchemaText is the child's schema: one free relation to storm.
	crashSchemaText = "storm^oo(K, V)"
	// crashScanQuery reads the whole storm relation back: the survivor census.
	crashScanQuery = "q(K, V) :- storm(K, V)"
	// crashSegmentBytes keeps child WAL segments small, so a storm spans
	// several sealed segments and recovery replays across rotations.
	crashSegmentBytes = 8 << 10
	// A round sends at most crashBatches batches of crashRows rows.
	crashBatches = 40
	crashRows    = 5
)

// TestMain lets a crash round re-exec this test binary as its durable
// victim: when the crash-child environment is set, the process becomes the
// node under test and never reaches m.Run.
func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) != "" {
		if err := runCrashChild(); err != nil {
			fmt.Fprintln(os.Stderr, "crash child:", err)
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCrashChild boots the durable node the environment describes: WAL
// recovery, the real handler, a loopback listener whose address is published
// atomically through the port file. It serves until killed.
func runCrashChild() error {
	dir := os.Getenv(crashDirEnv)
	portFile := os.Getenv(crashPortFileEnv)
	schemaText := os.Getenv(crashSchemaEnv)
	if dir == "" || portFile == "" || schemaText == "" {
		return fmt.Errorf("missing TOORJAH_CRASH_{DIR,PORTFILE,SCHEMA}")
	}
	sch, err := schema.Parse(schemaText)
	if err != nil {
		return err
	}
	opts := quietWALOpts(dir)
	opts.Fsync = os.Getenv(crashFsyncEnv)
	opts.SegmentMaxBytes = crashSegmentBytes
	db, l, err := OpenDurable(sch, "", opts)
	if err != nil {
		return err
	}
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	if err := sys.BindDatabase(db); err != nil {
		return err
	}
	WireWAL(sys, l)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// The parent polls for the file and must never read a half-written
	// address.
	tmp := portFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(lis.Addr().String()), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, portFile); err != nil {
		return err
	}
	return http.Serve(lis, New(sys, toorjah.Options{}, WithWAL(l)).Handler())
}

// TestCrashRecoveryEquivalence is the durability acceptance test: under
// every fsync policy a SIGKILLed node comes back serving exactly what a
// never-crashed twin serves after the same acknowledged batches; a
// failpoint-torn final record is truncated, never half-applied; and a node
// killed inside an fsync loses no acknowledged batch.
func TestCrashRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real child processes")
	}
	for _, tc := range []struct{ name, fsync, failpoint string }{
		{"kill9-fsync-always", wal.FsyncAlways, ""},
		{"kill9-fsync-never", wal.FsyncNever, ""},
		{"torn-write", wal.FsyncNever, "crash-after-bytes=2500"},
		{"die-in-fsync", wal.FsyncAlways, "crash-in-fsync=7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			crashRound(t, tc.fsync, tc.failpoint)
		})
	}
}

// crashRound runs one round in a fresh data directory: storm a durable
// child and kill it, then compare the recovered state with the twin three
// independent ways — an in-process replay of the directory, a /query scan of
// a restarted child, and that child's /metrics relation rows and epoch.
func crashRound(t *testing.T, fsync, failpoint string) {
	dir := t.TempDir()
	killAfter := 1 + rand.New(rand.NewSource(7)).Intn(crashBatches)

	victim := startCrashChild(t, dir, fsync, failpoint)
	client := &http.Client{Timeout: 10 * time.Second}
	var acked [crashBatches]bool
	nAcked := 0
	for i := range acked {
		var body strings.Builder
		for _, r := range crashBatchRows(i) {
			fmt.Fprintf(&body, "[%q, %q]\n", r[0], r[1])
		}
		if err := postStorm(client, victim.base, body.String()); err != nil {
			break // the failpoint took the child down mid-batch
		}
		acked[i] = true
		nAcked++
		// Armed, the child picks its own moment to die; otherwise the plug
		// is pulled after a random number of acknowledged batches.
		if failpoint == "" && nAcked == killAfter {
			break
		}
	}
	victim.kill()
	if nAcked == 0 {
		t.Error("the storm acknowledged no batch: the round proves nothing")
	}
	if failpoint != "" && nAcked == crashBatches {
		t.Errorf("failpoint %s never fired: all %d batches acknowledged", failpoint, nAcked)
	}

	// The in-process replay: the recovered state the restarted child must
	// serve. A relation nothing was recovered for is a fresh table at
	// epoch 1, which is what an untouched twin holds too.
	l, rec, err := wal.Open(quietWALOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if failpoint != "" && rec.RecordsReplayed == 0 {
		t.Errorf("failpoint %s: recovery replayed no record", failpoint)
	}
	// Only a death mid-write leaves a torn tail; one inside an fsync leaves
	// a whole record.
	if strings.HasPrefix(failpoint, "crash-after-bytes=") && !rec.Truncated {
		t.Errorf("failpoint %s: recovery reports no truncated tail", failpoint)
	}
	epoch, recovered := uint64(1), []storage.Row(nil)
	if st := rec.Relations["storm"]; st != nil {
		epoch, recovered = st.Epoch(), st.Snapshot().Rows()
	}

	// The never-crashed twin is fed exactly the surviving batches, in order.
	survivors, violations := crashCensus(acked[:], recovered)
	for _, v := range violations {
		t.Error(v)
	}
	survived := len(survivors)
	twinDB := storage.NewDatabase()
	twin, err := twinDB.Create("storm", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range survivors {
		twin.InsertAll(crashBatchRows(i))
	}
	t.Logf("%d/%d batches acknowledged, %d survived, %d records replayed, truncated=%v",
		nAcked, crashBatches, survived, rec.RecordsReplayed, rec.Truncated)

	snap := twin.Snapshot()
	want := strings.Join(sortedRows(snap.Rows()), ";")
	if got := strings.Join(sortedRows(recovered), ";"); got != want {
		t.Errorf("recovered rows differ from the twin's:\n got %s\nwant %s", got, want)
	}
	if epoch != snap.Epoch() {
		t.Errorf("recovered epoch %d, twin %d", epoch, snap.Epoch())
	}

	// A restarted child serves the same state over HTTP.
	reborn := startCrashChild(t, dir, fsync, "")
	rows, _, err := readNDJSON(http.DefaultClient, reborn.base+"/query?"+url.Values{"q": {crashScanQuery}}.Encode())
	if err != nil {
		t.Fatalf("survivor scan: %v", err)
	}
	if got := strings.Join(sortedRows(rows), ";"); got != want {
		t.Errorf("restarted node served rows that differ from the twin's:\n got %s\nwant %s", got, want)
	}
	metrics := scrapeMetrics(t, reborn.base)
	if got := metricValue(t, metrics, `toorjah_relation_epoch{relation="storm"}`); got != float64(snap.Epoch()) {
		t.Errorf("restarted node serves epoch %v, twin %d", got, snap.Epoch())
	}
	if got := metricValue(t, metrics, `toorjah_relation_rows{relation="storm"}`); got != float64(survived*crashRows) {
		t.Errorf("restarted node serves %v rows, want %d", got, survived*crashRows)
	}
}

// crashCensus holds a round's recovered rows to its acknowledgements: acked ⊆
// survived, and batches are all-or-nothing. It returns the batches recovered
// whole, in order, and one line per violation.
func crashCensus(acked []bool, recovered []storage.Row) (survivors []int, violations []string) {
	perBatch := make(map[int]int)
	for _, r := range recovered {
		var b, j int
		if _, err := fmt.Sscanf(r[0], "c%d_r%d", &b, &j); err == nil {
			perBatch[b]++
		}
	}
	for i := range acked {
		switch n := perBatch[i]; {
		case n == crashRows:
			survivors = append(survivors, i)
		case n > 0:
			violations = append(violations, fmt.Sprintf("batch %d partially applied: %d/%d rows recovered", i, n, crashRows))
		case acked[i]:
			violations = append(violations, fmt.Sprintf("acknowledged batch %d lost", i))
		}
	}
	return survivors, violations
}

// TestCrashRoundViolations holds the census to both directions: a clean
// round passes, even with a batch that reached the log but not its ack; a
// lost acknowledged batch and a half-applied one are a violation each.
func TestCrashRoundViolations(t *testing.T) {
	acked := make([]bool, crashBatches)
	var clean, broken []storage.Row
	for i := 0; i < 13; i++ {
		acked[i] = i < 12 // batch 12 survives unacknowledged, which is legal
		clean = append(clean, crashBatchRows(i)...)
		switch i {
		case 3: // lost
		case 7:
			broken = append(broken, crashBatchRows(i)[:2]...)
		default:
			broken = append(broken, crashBatchRows(i)...)
		}
	}
	if survivors, v := crashCensus(acked, clean); len(survivors) != 13 || len(v) != 0 {
		t.Errorf("clean round: %d survivors and violations %q, want 13 and none", len(survivors), v)
	}
	want := "acknowledged batch 3 lost;batch 7 partially applied: 2/5 rows recovered"
	if survivors, v := crashCensus(acked, broken); len(survivors) != 11 || strings.Join(v, ";") != want {
		t.Errorf("broken round: %d survivors and violations %q, want 11 and %q", len(survivors), v, want)
	}
}

// crashChild is one re-exec'd durable node.
type crashChild struct {
	cmd  *exec.Cmd
	base string
}

// kill SIGKILLs the child (no shutdown hooks, no flush) and reaps it; a
// second call finds it reaped and does nothing.
func (c *crashChild) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// startCrashChild re-execs the test binary as a durable node over dir and
// waits until it publishes its port.
func startCrashChild(t *testing.T, dir, fsync, failpoint string) *crashChild {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	portFile := fmt.Sprintf("%s/port.%d", dir, time.Now().UnixNano())
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1",
		crashDirEnv+"="+dir,
		crashSchemaEnv+"="+crashSchemaText,
		crashPortFileEnv+"="+portFile,
		crashFsyncEnv+"="+fsync,
		wal.FailpointEnv+"="+failpoint,
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &crashChild{cmd: cmd}
	t.Cleanup(c.kill)
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			c.base = "http://" + string(b)
			return c
		}
		if time.Now().After(deadline) {
			c.kill() // reaped, the child no longer writes stderr
			t.Fatalf("crash child never published a port (stderr: %s)", stderr.String())
		}
	}
}

// crashBatchRows builds batch i's rows, unique per (batch, row), so a row
// found after a crash names its batch.
func crashBatchRows(batch int) []storage.Row {
	out := make([]storage.Row, crashRows)
	for j := range out {
		out[j] = storage.Row{fmt.Sprintf("c%d_r%d", batch, j), fmt.Sprintf("v%d_%d", batch, j)}
	}
	return out
}
