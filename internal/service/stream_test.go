package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"
	"time"

	"toorjah"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
	"toorjah/internal/storage"
)

// TestAnswersNotHeldBehindASlowProbe: every answer a landed round trip made
// derivable reaches the client before the engine waits on the next one. The
// second access to mid stays in its source until the client has read all
// three answers of the first — a server that flushed the first answer and
// then only at the end would sit on the other two for as long as the source
// takes, here forever.
func TestAnswersNotHeldBehindASlowProbe(t *testing.T) {
	sch, err := schema.Parse("free^o(K)\nmid^io(K, V)")
	if err != nil {
		t.Fatal(err)
	}
	sys := toorjah.NewSystem(sch)
	if err := sys.BindRows("free", toorjah.Row{"k1"}, toorjah.Row{"k2"}); err != nil {
		t.Fatal(err)
	}
	const perKey = 3
	mid := storage.NewTable("mid", 2)
	for _, k := range []string{"k1", "k2"} {
		for v := 0; v < perKey; v++ {
			mid.InsertAll([]storage.Row{{k, fmt.Sprintf("%s_v%d", k, v)}})
		}
	}
	src, err := source.NewTableSource(sch.Relation("mid"), mid)
	if err != nil {
		t.Fatal(err)
	}
	gate := &heldSource{Wrapper: src, release: make(chan struct{})}
	gate.free.Store(1) // the first access answers at once, the second is the slow one
	sys.Bind(gate)
	// One access per round trip: k1 and k2 are two round trips, whichever
	// reaches the source second is held.
	ts := httptest.NewServer(New(sys, toorjah.Options{MaxBatch: -1}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape("q(K, V) :- free(K), mid(K, V)"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	timeout := time.After(2 * time.Second)
	var got []string
	for len(got) < 2*perKey+1 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended after %d lines: %q", len(got), got)
			}
			got = append(got, line)
			if len(got) == perKey {
				close(gate.release) // the first round trip's answers are all here
			}
		case <-timeout:
			if len(got) < perKey {
				close(gate.release)
			}
			t.Fatalf("%d of the first round trip's %d answers arrived while the second was in its source: %q",
				len(got), perKey, got)
		}
	}
	if last := got[len(got)-1]; !strings.Contains(last, `"done":true`) || !strings.Contains(last, `"answers":6`) {
		t.Errorf("last line = %s, want the done line of 6 answers", last)
	}
}

// flushCounter is a ResponseWriter that keeps the body and counts the
// writes and the flushes, remembering how much had been written at the
// first flush.
type flushCounter struct {
	header       http.Header
	body         bytes.Buffer
	writes       int
	flushes      int
	atFirstFlush int
}

func newFlushCounter() *flushCounter { return &flushCounter{header: make(http.Header)} }

func (f *flushCounter) Header() http.Header { return f.header }
func (f *flushCounter) WriteHeader(int)     {}
func (f *flushCounter) Write(p []byte) (int, error) {
	f.writes++
	return f.body.Write(p)
}
func (f *flushCounter) Flush() {
	if f.flushes++; f.flushes == 1 {
		f.atFirstFlush = f.body.Len()
	}
}

// scanSystem is serve-scan's shape at a size of the caller's choosing: the
// join q(T, C) :- cat(P, T), conf(P, C, Y) over persons × 2 cat rows × 2
// conf rows, 4 answers per person. Some values need escaping in JSON.
func scanSystem(t testing.TB, persons int, opts ...toorjah.SystemOption) (*toorjah.System, string) {
	t.Helper()
	sch, err := schema.Parse("cat^oo(P, T)\nconf^ioo(P, C, Y)")
	if err != nil {
		t.Fatal(err)
	}
	sys := toorjah.NewSystem(sch, opts...)
	var cat, conf []toorjah.Row
	for k := 0; k < persons; k++ {
		p := fmt.Sprintf("p%d", k)
		for j := 0; j < 2; j++ {
			topic := fmt.Sprintf("t%d_%d", k, j)
			if k%16 == 3 {
				topic = fmt.Sprintf("<t%d&%d> \"é\"\n", k, j)
			}
			cat = append(cat, toorjah.Row{p, topic})
			conf = append(conf, toorjah.Row{p, fmt.Sprintf("c%d_%d", k, j), fmt.Sprintf("y%d", 1990+k%30)})
		}
	}
	if err := sys.BindRows("cat", cat...); err != nil {
		t.Fatal(err)
	}
	if err := sys.BindRows("conf", conf...); err != nil {
		t.Fatal(err)
	}
	return sys, "/query?q=" + url.QueryEscape("q(T, C) :- cat(P, T), conf(P, C, Y)")
}

// TestQueryFlushesPerBurst: the first answer is flushed alone, after that
// the response is flushed once per burst — a handful of times for hundreds
// of answers, bounded by the round trips the run made — and the body is,
// byte for byte and in the same order, what encoding each answer with
// json.Encoder on its own wrote.
func TestQueryFlushesPerBurst(t *testing.T) {
	const persons = 64
	sys, target := scanSystem(t, persons)
	w := newFlushCounter()
	New(sys, toorjah.Options{}).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))

	body := w.body.Bytes()
	lines := bytes.SplitAfter(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	var done doneLine
	if err := json.Unmarshal(lines[len(lines)-1], &done); err != nil || !done.Done {
		t.Fatalf("last line %q is not a done line (%v)", lines[len(lines)-1], err)
	}
	answerLines := lines[:len(lines)-1]
	if len(answerLines) != 4*persons || done.Answers != 4*persons {
		t.Fatalf("%d answer lines, done says %d, want %d", len(answerLines), done.Answers, 4*persons)
	}

	// Re-encoding the decoded answers the old way, one Encode per answer,
	// must reproduce the answer lines exactly; the answers themselves must
	// be the library's.
	var reencoded bytes.Buffer
	enc := json.NewEncoder(&reencoded)
	var got []string
	for _, line := range answerLines {
		var a answerLine
		if err := json.Unmarshal(line, &a); err != nil || a.Answer == nil {
			t.Fatalf("bad answer line %q: %v", line, err)
		}
		if err := enc.Encode(a); err != nil {
			t.Fatal(err)
		}
		got = append(got, strings.Join(a.Answer, ","))
	}
	if got := bytes.Join(answerLines, nil); !bytes.Equal(got, reencoded.Bytes()) {
		t.Errorf("answer lines differ from per-answer json.Encoder output:\n got %q\nwant %q", got, reencoded.Bytes())
	}
	q, err := sys.Prepare("q(T, C) :- cat(P, T), conf(P, C, Y)")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := q.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if strings.Join(got, ";") != strings.Join(ref.SortedAnswers(), ";") {
		t.Errorf("streamed answers differ from the library's")
	}

	if first := body[:w.atFirstFlush]; bytes.Count(first, []byte("\n")) != 1 || !bytes.Equal(first, answerLines[0]) {
		t.Errorf("the first flush carried %q, want exactly the first answer line", first)
	}
	if done.Batches < 2 || w.flushes > done.Batches+2 {
		t.Errorf("%d flushes for %d answers over %d round trips, want at most round trips + 2",
			w.flushes, done.Answers, done.Batches)
	}
}

// pointSystem is serve-hot's and serve-cold's shape at a size of the
// caller's choosing: a cached system over conf^ioo, two rows per person, and
// one point request per person.
func pointSystem(tb testing.TB, persons int) (*toorjah.System, []*http.Request) {
	tb.Helper()
	sch, err := schema.Parse("conf^ioo(P, C, Y)")
	if err != nil {
		tb.Fatal(err)
	}
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	rows := make([]toorjah.Row, 0, 2*persons)
	reqs := make([]*http.Request, persons)
	for k := 0; k < persons; k++ {
		p := fmt.Sprintf("p%d", k)
		rows = append(rows, toorjah.Row{p, fmt.Sprintf("c%d", k%60), "y2008"}, toorjah.Row{p, fmt.Sprintf("c%d", 60+k%60), "y2009"})
		reqs[k] = httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape("q(C, Y) :- conf("+p+", C, Y)"), nil)
	}
	if err := sys.BindRows("conf", rows...); err != nil {
		tb.Fatal(err)
	}
	return sys, reqs
}

// TestPointResponseIsOneWrite: a run that never waits again after its
// answers are derived hands them over as it finishes, and the handler sends
// them with the done line — one Write, no Flush, cold (the one access lands,
// the run ends) as well as warm. net/http then knows the length of the
// response before it sends the header: Content-Length, not chunked.
func TestPointResponseIsOneWrite(t *testing.T) {
	sys, reqs := pointSystem(t, 4)
	h := New(sys, toorjah.Options{}).Handler()
	for accesses := 1; accesses >= 0; accesses-- { // cold, then warm
		w := newFlushCounter()
		h.ServeHTTP(w, reqs[1])
		if w.writes != 1 || w.flushes != 0 {
			t.Errorf("%d accesses: %d writes and %d flushes, want 1 and 0", accesses, w.writes, w.flushes)
		}
		lines := strings.Split(strings.TrimSuffix(w.body.String(), "\n"), "\n")
		want := fmt.Sprintf(`{"done":true,"answers":2,"accesses":%d,`, accesses)
		if len(lines) != 3 || lines[0] != `{"answer":["c1","y2008"]}` || !strings.HasPrefix(lines[2], want) {
			t.Errorf("%d accesses: response %q", accesses, lines)
		}
	}

	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + reqs[1].URL.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 || bytes.Count(body, []byte("\n")) != 3 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a body of %d bytes: %q",
			resp.ContentLength, resp.TransferEncoding, len(body), body)
	}
}

// heldJoin is TestAnswersNotHeldBehindASlowProbe's fixture: the join of
// free's two keys with mid's perKey rows apiece, one access per round trip,
// behind a server with the given executor tuning, which it starts, returning
// the query's URL. mid is bound through wrap.
func heldJoin(t *testing.T, perKey int, opts toorjah.Options, wrap func(source.Wrapper) source.Wrapper) string {
	t.Helper()
	sch, err := schema.Parse("free^o(K)\nmid^io(K, V)")
	if err != nil {
		t.Fatal(err)
	}
	sys := toorjah.NewSystem(sch)
	if err := sys.BindRows("free", toorjah.Row{"k1"}, toorjah.Row{"k2"}); err != nil {
		t.Fatal(err)
	}
	mid := storage.NewTable("mid", 2)
	for _, k := range []string{"k1", "k2"} {
		for v := 0; v < perKey; v++ {
			mid.InsertAll([]storage.Row{{k, fmt.Sprintf("%s_v%d", k, v)}})
		}
	}
	src, err := source.NewTableSource(sch.Relation("mid"), mid)
	if err != nil {
		t.Fatal(err)
	}
	sys.Bind(wrap(src))
	opts.MaxBatch = -1
	ts := httptest.NewServer(New(sys, opts).Handler())
	t.Cleanup(ts.Close)
	return ts.URL + "/query?q=" + url.QueryEscape("q(K, V) :- free(K), mid(K, V)")
}

// streamed GETs target and returns a function handing over the response's
// next n lines as they arrive; one that has not arrived after two seconds
// fails the test, once whatever the server is held behind has been let go.
func streamed(t *testing.T, target string, letGo func()) func(n int) []string {
	t.Helper()
	lines := make(chan string)
	go func() {
		defer close(lines)
		resp, err := http.Get(target) // returns with the first flush
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	return func(n int) []string {
		t.Helper()
		var got []string
		timeout := time.After(2 * time.Second)
		for len(got) < n {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("stream ended %d lines into the next %d: %q", len(got), n, got)
				}
				got = append(got, line)
			case <-timeout:
				letGo()
				t.Fatalf("%d of the next %d lines arrived while a source was awaited: %q", len(got), n, got)
			}
		}
		return got
	}
}

// TestLimitedRunDeliversBeforeItDrains: the limit stops a run whose other
// round trip is still in its source. The run lets that round trip land
// before it returns — and hands the answers over before it waits for it, so
// they reach the client while the source is still holding.
func TestLimitedRunDeliversBeforeItDrains(t *testing.T) {
	gate := &heldSource{release: make(chan struct{})}
	gate.free.Store(1)
	target := heldJoin(t, 3, toorjah.Options{}, func(w source.Wrapper) source.Wrapper {
		gate.Wrapper = w
		return gate
	})
	next := streamed(t, target+"&limit=3", func() { close(gate.release) })
	for _, line := range next(3) {
		if !strings.HasPrefix(line, `{"answer":`) {
			t.Errorf("line %s, want an answer", line)
		}
	}
	close(gate.release)
	if done := next(1)[0]; !strings.Contains(done, `"done":true,"answers":3,`) || !strings.Contains(done, `"truncated":true`) {
		t.Errorf("last line = %s, want the done line of 3 answers, truncated", done)
	}
}

// TestFailedRunDeliversWhatItDerived: a run that fails returns no result, so
// what it derived before the failure is in the response before the error
// line, and no done line follows.
func TestFailedRunDeliversWhatItDerived(t *testing.T) {
	down := errors.New("source down")
	target := heldJoin(t, 3, toorjah.Options{}, func(w source.Wrapper) source.Wrapper {
		return sourcetest.NewFlaky(w, 1, down) // the second access fails
	})
	lines := streamed(t, target, func() {})(4)
	for _, line := range lines[:3] {
		if !strings.HasPrefix(line, `{"answer":`) {
			t.Errorf("line %s, want an answer", line)
		}
	}
	if !strings.Contains(lines[3], `"error"`) || !strings.Contains(lines[3], down.Error()) {
		t.Errorf("last line = %s, want the error line", lines[3])
	}
}

// TestDisjunctsLastBurstIsNotTheUnions: the first disjunct of a union
// finishes — its answers are its run's last burst — while the second is
// held in its source. The union passes them on as any other burst, flushed:
// they reach the client before the gate opens.
func TestDisjunctsLastBurstIsNotTheUnions(t *testing.T) {
	sch, err := schema.Parse("a^o(V)\nb^o(V)")
	if err != nil {
		t.Fatal(err)
	}
	sys := toorjah.NewSystem(sch)
	if err := sys.BindRows("a", toorjah.Row{"a1"}, toorjah.Row{"a2"}); err != nil {
		t.Fatal(err)
	}
	b := storage.NewTable("b", 1)
	b.InsertAll([]storage.Row{{"b1"}, {"b2"}})
	src, err := source.NewTableSource(sch.Relation("b"), b)
	if err != nil {
		t.Fatal(err)
	}
	gate := &heldSource{Wrapper: src, release: make(chan struct{})}
	sys.Bind(gate)
	ts := httptest.NewServer(New(sys, toorjah.Options{}).Handler())
	defer ts.Close()

	next := streamed(t, ts.URL+"/query?q="+url.QueryEscape("q(V) :- a(V)\nq(V) :- b(V)"), func() { close(gate.release) })
	if got := strings.Join(next(2), ""); got != `{"answer":["a1"]}{"answer":["a2"]}` {
		t.Errorf("before the gate opened: %s, want the first disjunct's answers", got)
	}
	close(gate.release)
	if done := next(3)[2]; !strings.Contains(done, `"done":true,"answers":4,`) || !strings.Contains(done, `"disjuncts":2`) {
		t.Errorf("last line = %s, want the done line of 4 answers over 2 disjuncts", done)
	}
}

// failingWriter is a ResponseWriter whose writes fail after the first ok of
// them. With leave set the failure is the client's doing: the request's
// context is done by the time the write fails, as it is when net/http finds
// a connection dropped.
type failingWriter struct {
	*flushCounter
	ok    int
	leave context.CancelFunc
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.writes < f.ok {
		return f.flushCounter.Write(p)
	}
	f.writes++
	if f.leave != nil {
		f.leave()
	}
	return 0, errors.New("broken pipe")
}

// TestWriteErrorsCountResponses: after a write of a response fails nothing
// more of it is rendered or written, and toorjah_response_write_errors_total
// goes up by one however many bursts were still to come — and not at all
// when the request was aborted mid-stream: a client leaving is not a server
// error. An /ingest ack whose one write fails counts once as well.
func TestWriteErrorsCountResponses(t *testing.T) {
	for _, aborted := range []bool{false, true} {
		sys, target := scanSystem(t, 64) // a dozen writes when they all succeed
		srv := New(sys, toorjah.Options{})
		ctx, cancel := context.WithCancel(context.Background())
		w := &failingWriter{flushCounter: newFlushCounter(), ok: 1}
		want := int64(1)
		if aborted {
			w.leave, want = cancel, 0
		}
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx))
		cancel()
		if got := srv.writeErrs.Value(); got != want {
			t.Errorf("aborted %v: toorjah_response_write_errors_total = %d, want %d", aborted, got, want)
		}
		if w.writes != 2 || bytes.Count(w.body.Bytes(), []byte("\n")) != 1 {
			t.Errorf("aborted %v: %d writes, body %q, want the first answer and one failed write", aborted, w.writes, w.body.Bytes())
		}
	}

	sys, _ := scanSystem(t, 1)
	srv := New(sys, toorjah.Options{})
	w := &failingWriter{flushCounter: newFlushCounter()}
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/ingest?relation=cat", strings.NewReader(`["p9","t9"]`+"\n")))
	if got := srv.writeErrs.Value(); got != 1 || w.writes != 1 {
		t.Errorf("failed /ingest ack: toorjah_response_write_errors_total = %d after %d writes, want 1 after 1", got, w.writes)
	}
}

// BenchmarkQueryHandlerScan is serve-scan without the network: the 512
// answers of the cached join through Handler() — plan lookup, the pipelined
// executor over a warm access cache, NDJSON rendering — into memory,
// reporting how often the handler flushed.
func BenchmarkQueryHandlerScan(b *testing.B) {
	sys, target := scanSystem(b, 128, toorjah.WithCache(toorjah.CacheOptions{}))
	h := New(sys, toorjah.Options{}).Handler()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	w := newFlushCounter()
	h.ServeHTTP(w, req) // plan the query, fill the cache
	w.flushes = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.body.Reset()
		h.ServeHTTP(w, req)
	}
	b.ReportMetric(float64(w.flushes)/float64(b.N), "flushes/op")
	b.ReportMetric(float64(w.body.Len()), "resp-B/op")
}

// BenchmarkQueryHandlerPointDistinct is serve-cold without the network and
// without the source: a point lookup with a constant no earlier request
// carried, through Handler() into memory. Every request is a new text of a
// known shape, so what is timed is parse, shape key, plan-cache hit, the
// executor set-up and one cache-missing probe of a local table.
func BenchmarkQueryHandlerPointDistinct(b *testing.B) {
	const persons = 1 << 14
	sys, reqs := pointSystem(b, persons)
	h := New(sys, toorjah.Options{}).Handler()
	w := newFlushCounter()
	h.ServeHTTP(w, reqs[0]) // plan the shape
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.body.Reset()
		h.ServeHTTP(w, reqs[(i+1)%persons])
	}
	b.StopTimer()
	if !bytes.Contains(w.body.Bytes(), []byte(`"answers":2,`)) {
		b.Fatalf("last response: %s", w.body.Bytes())
	}
	if st := sys.PlanCacheStats(); st.Shapes != 1 || st.Misses != 1 {
		b.Fatalf("plan cache = %+v, want the one shape planned once", st)
	}
}

// BenchmarkQueryHandlerPointHot is serve-hot without the network: 512 point
// lookups going round, every one a plan-cache hit and an access-cache hit,
// through Handler() into memory — reporting how many writes and flushes a
// response took, which over a socket are system calls and client wake-ups.
func BenchmarkQueryHandlerPointHot(b *testing.B) {
	const hot = 512
	sys, reqs := pointSystem(b, hot)
	h := New(sys, toorjah.Options{}).Handler()
	w := newFlushCounter()
	for _, req := range reqs {
		h.ServeHTTP(w, req) // plan the shape, fill the cache
	}
	w.writes, w.flushes = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.body.Reset()
		h.ServeHTTP(w, reqs[i%hot])
	}
	b.StopTimer()
	if !bytes.Contains(w.body.Bytes(), []byte(`"answers":2,"accesses":0,`)) {
		b.Fatalf("last response: %s", w.body.Bytes())
	}
	b.ReportMetric(float64(w.writes)/float64(b.N), "writes/op")
	b.ReportMetric(float64(w.flushes)/float64(b.N), "flushes/op")
}
