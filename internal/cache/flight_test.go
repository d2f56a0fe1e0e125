package cache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// gateWrapper holds every probe inside the inner source until release is
// closed, so a test decides exactly which requests overlap. failFirst, when
// set, is what the first probe to get through does instead of delegating.
type gateWrapper struct {
	source.Wrapper
	release chan struct{}

	mu        sync.Mutex
	failFirst func() error
}

func (g *gateWrapper) Probe(ctx context.Context, ids []sym.ID, out [][]storage.IRow) error {
	<-g.release
	g.mu.Lock()
	fail := g.failFirst
	g.failFirst = nil
	g.mu.Unlock()
	if fail != nil {
		return fail()
	}
	return g.Wrapper.Probe(ctx, ids, out)
}

// awaitClassified blocks until the cache has classified n accesses of r
// (every access is counted the moment it is classified — before any
// round trip or wait), failing the test if that never happens.
func awaitClassified(t *testing.T, c *Cache, n int64) RelStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.Snapshot()["r"]
		if st.Hits+st.Misses+st.Collapsed == n {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache classified %+v, want %d accesses", st, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverlappingBatchesCollapse forces N requests with pairwise
// overlapping batches {k0,k1}, {k1,k2}, …, {kN-1,k0} to all be inside the
// cache at once — the gate keeps every round trip in flight until all 2N
// accesses are classified — and asserts the flight protocol: the source
// sees each distinct key exactly once, every demanded access is accounted
// as a hit, a miss or collapsed, and every request gets the right rows.
func TestOverlappingBatchesCollapse(t *testing.T) {
	const N = 8
	var rows []storage.Row
	for i := 0; i < N; i++ {
		rows = append(rows, storage.Row{fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)})
	}
	ctr, _ := testSource(t, "r^io(K, V)", rows...)
	gate := &gateWrapper{Wrapper: ctr, release: make(chan struct{})}
	c := New(Options{})
	w := c.Wrap(gate)

	got := make([][][]storage.Row, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batch := [][]string{{fmt.Sprintf("k%d", i)}, {fmt.Sprintf("k%d", (i+1)%N)}}
			got[i], errs[i] = source.ProbeStrings(context.Background(), w, batch)
		}(i)
	}
	st := awaitClassified(t, c, 2*N)
	if st.Hits != 0 || st.Misses != N || st.Collapsed != N {
		t.Errorf("with every round trip held: %+v, want 0 hits / %d misses / %d collapsed", st, N, N)
	}
	close(gate.release)
	wg.Wait()

	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want := [][]storage.Row{{rows[i]}, {rows[(i+1)%N]}}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("request %d = %v, want %v", i, got[i], want)
		}
	}
	if cst := ctr.Stats(); cst.Accesses != N || ctr.DistinctAccesses() != N {
		t.Errorf("source saw %d accesses of %d distinct keys, want %d of %d",
			cst.Accesses, ctr.DistinctAccesses(), N, N)
	}
	st = c.Snapshot()["r"]
	if st.Hits+st.Misses+st.Collapsed != 2*N || st.Collapsed == 0 {
		t.Errorf("final stats %+v: want hits+misses+collapsed = %d with collapsed > 0", st, 2*N)
	}
}

// TestCancelledWaiterReturnsPromptly: a request waiting on another
// request's flight gives up as soon as its own context is cancelled, without
// disturbing the flight.
func TestCancelledWaiterReturnsPromptly(t *testing.T) {
	ctr, _ := testSource(t, "r^io(K, V)", storage.Row{"k", "v"})
	gate := &gateWrapper{Wrapper: ctr, release: make(chan struct{})}
	c := New(Options{})
	w := c.Wrap(gate)

	owner := make(chan error, 1)
	go func() {
		_, err := access(w, "k")
		owner <- err
	}()
	awaitClassified(t, c, 1) // the owner's miss: its round trip is held by the gate

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := source.ProbeStrings(ctx, w, [][]string{{"k"}})
		waiter <- err
	}()
	if st := awaitClassified(t, c, 2); st.Collapsed != 1 {
		t.Fatalf("second request did not join the flight: %+v", st)
	}
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter: err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter still blocked on the foreign flight")
	}

	close(gate.release)
	if err := <-owner; err != nil {
		t.Errorf("owner: %v", err)
	}
	if got := ctr.Stats().Accesses; got != 1 {
		t.Errorf("source accesses = %d, want 1", got)
	}
}

// TestFailedOwnerDoesNotPoisonWaiter: when the request that owns a flight
// fails — by error or by panic — the failure stays with that request; a
// live waiter probes the key itself and succeeds.
func TestFailedOwnerDoesNotPoisonWaiter(t *testing.T) {
	boom := errors.New("boom")
	for name, fail := range map[string]func() error{
		"error": func() error { return boom },
		"panic": func() error { panic(boom) },
	} {
		t.Run(name, func(t *testing.T) {
			ctr, _ := testSource(t, "r^io(K, V)", storage.Row{"k", "v"})
			gate := &gateWrapper{Wrapper: ctr, release: make(chan struct{}), failFirst: fail}
			c := New(Options{})
			w := c.Wrap(gate)

			owner := make(chan any, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						owner <- r
					}
				}()
				_, err := access(w, "k")
				owner <- err
			}()
			awaitClassified(t, c, 1)

			type outcome struct {
				rows []storage.Row
				err  error
			}
			waiter := make(chan outcome, 1)
			go func() {
				rows, err := access(w, "k")
				waiter <- outcome{rows, err}
			}()
			awaitClassified(t, c, 2)
			close(gate.release)

			if got := <-owner; got != any(boom) {
				t.Errorf("owner outcome = %v, want %v", got, boom)
			}
			got := <-waiter
			if got.err != nil || len(got.rows) != 1 || got.rows[0][1] != "v" {
				t.Errorf("waiter = %v, %v; want the row and no error", got.rows, got.err)
			}
			if !stored(c, "r", source.EpochOf(gate), "k") {
				t.Error("the waiter's own probe did not populate the cache")
			}
		})
	}
}
