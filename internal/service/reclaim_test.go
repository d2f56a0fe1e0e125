package service

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toorjah"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
	"toorjah/internal/sym"
)

// Sizes of the reclamation property's churn: every batch inserts one fresh
// value under each of reclaimKeys keys, and the writer deletes the oldest
// batch once reclaimWindow are live, so the log compacts every 128 batches
// and every sweep after that has deleted values to free.
const (
	reclaimKeys   = 8
	reclaimWindow = 16
)

func reclaimValue(b, k int) string { return "v" + strconv.Itoa(b) + "_" + strconv.Itoa(k) }

func reclaimBatch(b int) []storage.Row {
	rows := make([]storage.Row, reclaimKeys)
	for k := range rows {
		rows[k] = storage.Row{"k" + strconv.Itoa(k), reclaimValue(b, k)}
	}
	return rows
}

// checkWindow holds the values one read of key k returned to the reference
// at some epoch of the churn: the value of key k of every batch of a window
// the writer passed through — batches 0…n while n < reclaimWindow, later a
// run of reclaimWindow or reclaimWindow+1 consecutive batches.
func checkWindow(k int, values []string) error {
	var batches []int
	for _, v := range values {
		rest, ok := strings.CutPrefix(v, "v")
		bs, ks, ok2 := strings.Cut(rest, "_")
		b, errB := strconv.Atoi(bs)
		if !ok || !ok2 || errB != nil || ks != strconv.Itoa(k) {
			return fmt.Errorf("k%d read %q, never inserted under it", k, v)
		}
		batches = append(batches, b)
	}
	slices.Sort(batches)
	if len(batches) == 0 {
		return nil // epoch 1, before the first batch
	}
	lo, hi := batches[0], batches[len(batches)-1]
	if hi-lo+1 != len(batches) {
		return fmt.Errorf("k%d read batches %v: not one window", k, batches)
	}
	if n := len(batches); lo > 0 && n != reclaimWindow && n != reclaimWindow+1 {
		return fmt.Errorf("k%d read batches %d…%d: %d batches, no epoch held that many", k, lo, hi, n)
	}
	return nil
}

// markSource is an unversioned source computed from its binding: mark(V, M)
// holds the single row (v, m) for a value of an even batch, and nothing for
// any other value. Behind the access cache its entries never expire with an
// epoch, so a cached "nothing" for a value whose ID were freed and issued
// again to an even batch's value would answer that value wrongly.
type markSource struct {
	rel *schema.Relation
	m   sym.ID
}

func (s *markSource) Relation() *schema.Relation { return s.rel }

func (s *markSource) Probe(_ context.Context, ids []sym.ID, out [][]storage.IRow) error {
	if err := source.CheckSlots(s.rel, ids, out); err != nil {
		return err
	}
	for i, id := range ids {
		out[i] = nil
		if evenBatch(sym.Default.Str(id)) {
			out[i] = []storage.IRow{{id, s.m}}
		}
	}
	return nil
}

func evenBatch(v string) bool {
	bs, _, _ := strings.Cut(strings.TrimPrefix(v, "v"), "_")
	b, err := strconv.Atoi(bs)
	return err == nil && b%2 == 0
}

// TestSweepsBesideQueriesAndChurn is the soundness property of reclamation,
// under -race: queries through the façade, a union, through /query,
// federated through a peer, and through the access cache run beside an ingest churn while a
// goroutine sweeps the symbol table as often as it can. Every answer equals
// the reference at some epoch the churn passed through, and the cached
// computed source answers every value as its definition does, however often
// the IDs of deleted values were freed and issued again. Sweeps both free
// and reuse IDs, and a Result kept from the start renders its original
// strings at the end.
func TestSweepsBesideQueriesAndChurn(t *testing.T) {
	ctx := context.Background()
	sch := schema.MustParse("live^io(K, V)\nmark^io(V, M)")
	peerSys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	if err := peerSys.BindRows("live"); err != nil {
		t.Fatal(err)
	}
	peerSys.Bind(&markSource{rel: sch.Relation("mark"), m: sym.Intern("m")})
	peer := httptest.NewServer(New(peerSys, toorjah.Options{}).Handler())
	t.Cleanup(peer.Close)
	frontSch := schema.MustParse("live^io(K, V)")
	front := toorjah.NewSystem(frontSch, toorjah.WithCache(toorjah.CacheOptions{}), toorjah.WithRemoteOptions(fastRemote()))
	if err := front.AttachRemote(ctx, peer.URL+"=live"); err != nil {
		t.Fatal(err)
	}
	frontSrv := httptest.NewServer(New(front, toorjah.Options{}).Handler())
	t.Cleanup(frontSrv.Close)

	var written atomic.Int64 // batches inserted
	write := func(b int) {
		if _, err := peerSys.Insert("live", reclaimBatch(b)...); err != nil {
			t.Error(err)
		}
		if b >= reclaimWindow {
			if _, err := peerSys.Delete("live", reclaimBatch(b-reclaimWindow)...); err != nil {
				t.Error(err)
			}
		}
		written.Store(int64(b + 1))
	}
	for b := 0; b < 2*reclaimWindow; b++ {
		write(b)
	}
	keptQ, err := peerSys.Prepare("q(V) :- live(k1, V)")
	if err != nil {
		t.Fatal(err)
	}
	kept, err := keptQ.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	keptStrs := kept.SortedAnswers()
	before := sym.Default.Stats()

	// The run lasts its duration, and beyond it until sweeps have freed and
	// reused IDs: sweeps cost what the table holds, pinned values of other
	// tests included, so a busy process gets through fewer batches.
	duration := time.Second
	if testing.Short() {
		duration = 300 * time.Millisecond
	}
	deadline, cancel := context.WithTimeout(ctx, duration)
	defer cancel()
	limit, cancelLimit := context.WithTimeout(ctx, 30*duration)
	defer cancelLimit()
	reclaimed := func() bool {
		st := sym.Default.Stats()
		return st.Freed > before.Freed && st.Reused > before.Reused
	}
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for (deadline.Err() == nil || !reclaimed()) && limit.Err() == nil && !t.Failed() {
				f()
			}
		}()
	}
	next := int(written.Load())
	run(func() { write(next); next++ })
	var sweeps atomic.Int64
	run(func() {
		if sym.Sweep() {
			sweeps.Add(1)
		}
	})

	facade := func(rng *rand.Rand) {
		k := rng.Intn(reclaimKeys)
		q, err := peerSys.Prepare(fmt.Sprintf("q(V) :- live(k%d, V)", k))
		if err != nil {
			t.Error(err)
			return
		}
		res, err := q.Execute(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if err := checkWindow(k, res.SortedAnswers()); err != nil {
			t.Errorf("façade: %v", err)
		}
	}
	overHTTP := func(name, base string) func(*rand.Rand) {
		client := &http.Client{}
		return func(rng *rand.Rand) {
			k := rng.Intn(reclaimKeys)
			rows, _, err := readNDJSON(client, urlQuery(base, fmt.Sprintf("q(V) :- live(k%d, V)", k)))
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			values := make([]string, len(rows))
			for i, r := range rows {
				values[i] = r[0]
			}
			if err := checkWindow(k, values); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	// A union answers both disjuncts over one pinned snapshot: each key's
	// values are a window, and the same one.
	union := func(rng *rand.Rand) {
		a, b := rng.Intn(reclaimKeys), rng.Intn(reclaimKeys-1)
		if b >= a {
			b++
		}
		u, err := peerSys.PrepareUCQ(fmt.Sprintf("q(V) :- live(k%d, V)\nq(V) :- live(k%d, V)", a, b))
		if err != nil {
			t.Error(err)
			return
		}
		res, err := u.Execute(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		byKey := map[int][]string{}
		batches := map[int][]string{}
		for _, v := range res.SortedAnswers() {
			bs, ks, _ := strings.Cut(strings.TrimPrefix(v, "v"), "_")
			k, _ := strconv.Atoi(ks)
			byKey[k] = append(byKey[k], v)
			batches[k] = append(batches[k], bs)
		}
		for _, k := range []int{a, b} {
			if err := checkWindow(k, byKey[k]); err != nil {
				t.Errorf("union: %v", err)
			}
			slices.Sort(batches[k])
		}
		if len(byKey) > 2 || !slices.Equal(batches[a], batches[b]) {
			t.Errorf("union of k%d and k%d: windows %v and %v, want one snapshot's", a, b, batches[a], batches[b])
		}
	}
	// The cached computed source is asked about recent values: deleted ones,
	// whose cached answers outlive their rows, and the newest, whose IDs may
	// be ones a sweep freed.
	marked := func(rng *rand.Rand) {
		n := int(written.Load())
		v := reclaimValue(max(0, n-1-rng.Intn(4*reclaimWindow)), rng.Intn(reclaimKeys))
		q, err := peerSys.Prepare(fmt.Sprintf("q(M) :- mark(%s, M)", v))
		if err != nil {
			t.Error(err)
			return
		}
		res, err := q.Execute(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		want := []string(nil)
		if evenBatch(v) {
			want = []string{"m"}
		}
		if got := res.SortedAnswers(); !slices.Equal(got, want) {
			t.Errorf("mark(%s) answered %v, want %v", v, got, want)
		}
	}
	for i, reader := range []func(*rand.Rand){
		facade,
		union,
		overHTTP("/query", peer.URL),
		overHTTP("federated /query", frontSrv.URL),
		marked,
	} {
		rng := rand.New(rand.NewSource(int64(i)))
		run(func() { reader(rng) })
	}
	wg.Wait()

	after := sym.Default.Stats()
	t.Logf("%d batches, %d sweeps run by the sweeper (%d in all), %d IDs freed, %d reused",
		written.Load(), sweeps.Load(), after.Sweeps-before.Sweeps, after.Freed-before.Freed, after.Reused-before.Reused)
	if after.Freed == before.Freed || after.Reused == before.Reused {
		t.Errorf("sweeps freed %d and reused %d IDs: the property never met reclamation",
			after.Freed-before.Freed, after.Reused-before.Reused)
	}
	if got := kept.SortedAnswers(); !slices.Equal(got, keptStrs) {
		t.Errorf("a Result kept across sweeps renders %v, it rendered %v", got, keptStrs)
	}
}

// stalledWriter is a response whose client stops reading: its first Write
// blocks until resume is closed.
type stalledWriter struct {
	*flushCounter
	stalled chan struct{} // closed when the first Write blocks
	resume  chan struct{}
	once    sync.Once
}

func (s *stalledWriter) Write(p []byte) (int, error) {
	s.once.Do(func() {
		close(s.stalled)
		<-s.resume
	})
	return s.flushCounter.Write(p)
}

// TestSlowReaderStallsNothing: a /query client that stops reading delays
// its own response and stalls nothing else, though its run's hold keeps
// every sweep waiting for as long as it is stalled. While its response is
// blocked in its first write, fresh values are interned until a sweep is
// overdue; an ingest batch, another query and a data snapshot then still
// complete — each new hold waits at most the drain's bound, once, and the
// sweep is postponed. Once the client reads again its response arrives
// whole, its run's hold ends, and a sweep frees what was interned meanwhile.
func TestSlowReaderStallsNothing(t *testing.T) {
	const persons = 64
	sys, target := scanSystem(t, persons)
	h := New(sys, toorjah.Options{}).Handler()
	sym.Sweep()
	kept := sym.Default.Len()
	w := &stalledWriter{flushCounter: newFlushCounter(), stalled: make(chan struct{}), resume: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	}()
	<-w.stalled
	resume := sync.OnceFunc(func() { close(w.resume) })
	defer resume()

	// Overdue at four times what the last sweep kept, or its floor of 4096.
	before := sym.Default.Stats()
	j := sym.Default.Join()
	for i := 0; i <= 4*max(kept, 4096); i++ {
		j.Intern("stalled-" + strconv.Itoa(i))
	}
	j.Release()
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not complete while a reader was stalled", what)
		}
	}
	within("an ingest batch", func() {
		if _, err := sys.Insert("cat", toorjah.Row{"p-new", "t-new"}); err != nil {
			t.Error(err)
		}
	})
	within("a query", func() {
		other := newFlushCounter()
		h.ServeHTTP(other, httptest.NewRequest(http.MethodGet, target, nil))
		if !strings.Contains(other.body.String(), `{"done":true,"answers":256,`) {
			t.Errorf("a query beside the stalled one answered %q", other.body.String())
		}
	})
	within("a data snapshot", func() { sys.DataSnapshot() })
	if st := sym.Default.Stats(); st.Postponed == before.Postponed || st.Sweeps != before.Sweeps {
		t.Errorf("while the reader was stalled: %+v, before %+v; want a postponed sweep and none run", st, before)
	}

	resume()
	<-served
	if n := strings.Count(w.body.String(), "\n"); n != 4*persons+1 || !strings.Contains(w.body.String(), `"answers":256,`) {
		t.Errorf("the stalled response ended with %d lines: %q…", n, w.body.String()[:min(200, w.body.Len())])
	}
	sym.Sweep()
	if n := sym.Default.Len(); n > kept+64 {
		t.Errorf("%d values live after the reader left and a sweep ran, %d before it stalled", n, kept)
	}
}

// TestProbeTrafficStaysBounded: /probe requests whose holds overlap without
// a break still let the symbol table sweep what their fresh bindings
// interned. Clients probe a relation whose source takes five milliseconds
// per request, so some probe is always in its source, each with bindings
// no one probed before; the live symbols stay within what a sweep may let
// grow before it is overdue.
func TestProbeTrafficStaysBounded(t *testing.T) {
	sch := schema.MustParse("slow^io(K, V)")
	sys := toorjah.NewSystem(sch)
	sys.Bind(&sleepySource{rel: sch.Relation("slow"), d: 5 * time.Millisecond})
	peer := httptest.NewServer(New(sys, toorjah.Options{}).Handler())
	t.Cleanup(peer.Close)

	sym.Sweep()
	base := sym.Default.Len()
	// A sweep is overdue once four times what the last one kept, or four
	// times its floor of 4096, have been issued; add the probes in flight.
	const clients, perProbe = 8, 256
	bound := base + 4*max(base, 4096) + clients*perProbe
	target := 3 * (bound - base)
	if testing.Short() {
		target = bound - base
	}
	before := sym.Default.Stats()
	var sent, peak atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			var body strings.Builder
			for r := 0; sent.Load() < int64(target) && !t.Failed(); r++ {
				body.Reset()
				body.WriteString(`{"relation":"slow","bindings":[`)
				for i := 0; i < perProbe; i++ {
					if i > 0 {
						body.WriteByte(',')
					}
					fmt.Fprintf(&body, `["fresh-%d-%d-%d"]`, c, r, i)
				}
				body.WriteString(`]}`)
				resp, err := client.Post(peer.URL+"/probe", "application/json", strings.NewReader(body.String()))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/probe: %s", resp.Status)
					return
				}
				sent.Add(perProbe)
				if n := int64(sym.Default.Len()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}()
	}
	wg.Wait()
	st := sym.Default.Stats()
	t.Logf("%d fresh bindings probed; live symbols %d at the start, %d at the peak, bound %d; %d sweeps",
		sent.Load(), base, peak.Load(), bound, st.Sweeps-before.Sweeps)
	if peak.Load() > int64(bound) {
		t.Errorf("live symbols peaked at %d, over the bound %d", peak.Load(), bound)
	}
}

// sleepySource answers nothing, after d.
type sleepySource struct {
	rel *schema.Relation
	d   time.Duration
}

func (s *sleepySource) Relation() *schema.Relation { return s.rel }

func (s *sleepySource) Probe(_ context.Context, ids []sym.ID, out [][]storage.IRow) error {
	if err := source.CheckSlots(s.rel, ids, out); err != nil {
		return err
	}
	time.Sleep(s.d)
	clear(out)
	return nil
}
