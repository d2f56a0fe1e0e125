package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
// flushes, remembering how much had been written at the first.
type flushCounter struct {
	header       http.Header
	body         bytes.Buffer
	flushes      int
	atFirstFlush int
}

func newFlushCounter() *flushCounter { return &flushCounter{header: make(http.Header)} }

func (f *flushCounter) Header() http.Header         { return f.header }
func (f *flushCounter) WriteHeader(int)             {}
func (f *flushCounter) Write(p []byte) (int, error) { return f.body.Write(p) }
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
	sch, err := schema.Parse("conf^ioo(P, C, Y)")
	if err != nil {
		b.Fatal(err)
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
		b.Fatal(err)
	}
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
