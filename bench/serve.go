package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"toorjah"
	"toorjah/internal/storage"
)

// The three read-only service workloads share one two-node cluster: node0
// serves /query with the default access cache and holds pub and cat
// locally; node1 holds conf, input-bound by person, as node0's federation
// peer. Sizes are set against node0's two caches: the service keeps 1024
// prepared plans (FIFO) and the access cache 65536 accesses (LRU).
const (
	planCacheSize   = 1024
	accessCacheSize = 65536

	confPersons  = 150000 // × 2 rows each on node1
	hotKeys      = 512    // fits both caches
	scanPersons  = 128    // × 2 cat rows × 2 conf rows = 512 answers
	quickPersons = 4000
)

const serveSchema = `
	pub^oo(P, T)
	cat^oo(P, T)
	conf^ioo(P, C, Y)`

func person(k int) string { return "p" + strconv.Itoa(k) }

// mix is a splitmix64 step: the data is a pure function of (seed, person,
// row), so the expected answer for any key needs no table to look up.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// confRow is row j (0 or 1) of person k. The two rows of a person differ in
// the conference (even/odd), so neither the table nor the answer set ever
// folds them into one.
func confRow(seed int64, k, j int) storage.Row {
	h := mix(mix(uint64(seed)) ^ uint64(k)<<1 ^ uint64(j))
	return storage.Row{
		person(k),
		"c" + strconv.Itoa(int(h%60)*2+j),
		"y" + strconv.Itoa(1990+int((h>>20)%30)),
	}
}

func pointText(k int) string { return "q(C, Y) :- conf(" + person(k) + ", C, Y)" }

// pointWant is the ground-truth digest of pointText(k).
func pointWant(seed int64, k int) answerSet {
	a, b := confRow(seed, k, 0), confRow(seed, k, 1)
	return digestRows([][]string{{a[1], a[2]}, {b[1], b[2]}})
}

const scanText = "q(T, C) :- cat(P, T), conf(P, C, Y)"

func queryURL(base, text string) string { return base + "/query?q=" + url.QueryEscape(text) }

// serveCluster is the running two-node cluster plus the reference system.
type serveCluster struct {
	node0, node1 *node
	persons      int
	catPersons   []int
}

func (c *serveCluster) close() {
	c.node0.close()
	c.node1.close()
}

func fillTable(db *storage.Database, name string, arity int, rows []storage.Row) error {
	t, err := db.Create(name, arity)
	if err != nil {
		return err
	}
	t.InsertAll(rows)
	return nil
}

// confRows are both rows of each given person; catRows the two cat rows.
func confRows(seed int64, persons []int) []storage.Row {
	rows := make([]storage.Row, 0, 2*len(persons))
	for _, k := range persons {
		rows = append(rows, confRow(seed, k, 0), confRow(seed, k, 1))
	}
	return rows
}

func catRows(persons []int) []storage.Row {
	rows := make([]storage.Row, 0, 2*len(persons))
	for _, k := range persons {
		for j := 0; j < 2; j++ {
			rows = append(rows, storage.Row{person(k), fmt.Sprintf("t%d_%d", k, j)})
		}
	}
	return rows
}

// boundSystem builds a system over sch holding the given tables.
func boundSystem(sch *toorjah.Schema, tables map[string][]storage.Row, opts ...toorjah.SystemOption) (*toorjah.System, error) {
	db := storage.NewDatabase()
	for name, rows := range tables {
		if err := fillTable(db, name, sch.Relation(name).Arity(), rows); err != nil {
			return nil, err
		}
	}
	sys := toorjah.NewSystem(sch, opts...)
	if err := sys.BindDatabase(db); err != nil {
		return nil, err
	}
	return sys, nil
}

// startServeCluster generates the data from the seed and stands the two
// nodes up, node0 attached to node1 for conf.
func startServeCluster(cfg runConfig, mw0, mw1 *middleware) (*serveCluster, error) {
	sch, err := toorjah.ParseSchema(serveSchema)
	if err != nil {
		return nil, err
	}
	c := &serveCluster{persons: confPersons}
	if cfg.quick {
		c.persons = quickPersons
	}
	all := rand.New(rand.NewSource(cfg.seed)).Perm(c.persons)
	c.catPersons = all[:scanPersons]

	peerSys, err := boundSystem(sch, map[string][]storage.Row{"conf": confRows(cfg.seed, all)})
	if err != nil {
		return nil, err
	}
	var pub []storage.Row
	for i := 0; i < 40; i++ {
		for j := 0; j < 5; j++ {
			pub = append(pub, storage.Row{person(i), fmt.Sprintf("title_%d_%d", i, j)})
		}
	}
	mainSys, err := boundSystem(sch, map[string][]storage.Row{"pub": pub, "cat": catRows(c.catPersons)},
		toorjah.WithCache(toorjah.CacheOptions{}),
		toorjah.WithRemoteOptions(toorjah.RemoteOptions{
			Timeout:   5 * time.Second,
			RetryBase: time.Millisecond,
			RetryMax:  20 * time.Millisecond,
		}))
	if err != nil {
		return nil, err
	}
	if c.node1, err = startNode(peerSys, mw1); err != nil {
		return nil, err
	}
	if err := mainSys.AttachRemote(context.Background(), c.node1.url+"=conf"); err != nil {
		c.node1.close()
		return nil, fmt.Errorf("attach peer: %w", err)
	}
	if c.node0, err = startNode(mainSys, mw0); err != nil {
		c.node1.close()
		return nil, err
	}
	return c, nil
}

// reference answers texts on an all-local, cache-less system with the naive
// executor (the paper's Fig. 1 algorithm, the repo's test oracle) holding
// cat and the conf rows of the given persons.
func (c *serveCluster) reference(seed int64, persons []int, texts []string) ([]answerSet, error) {
	sch, err := toorjah.ParseSchema(serveSchema)
	if err != nil {
		return nil, err
	}
	ref, err := boundSystem(sch, map[string][]storage.Row{
		"conf": confRows(seed, persons), "cat": catRows(c.catPersons)})
	if err != nil {
		return nil, err
	}
	out := make([]answerSet, len(texts))
	for i, text := range texts {
		q, err := ref.Prepare(text)
		if err != nil {
			return nil, fmt.Errorf("reference prepare %q: %w", text, err)
		}
		res, err := q.Execute(context.Background(), toorjah.WithExecutor(toorjah.ExecutorNaive))
		if err != nil {
			return nil, fmt.Errorf("reference execute %q: %w", text, err)
		}
		for _, t := range res.Answers.Tuples() {
			out[i].add(answerLine(t.Strings()))
		}
	}
	return out, nil
}

// checkPointTruth confirms on the reference system that pointWant — the
// closed form every reply is checked against — is what the engine's oracle
// answers for the sampled persons.
func (c *serveCluster) checkPointTruth(seed int64, sample []int) error {
	texts := make([]string, len(sample))
	for i, k := range sample {
		texts[i] = pointText(k)
	}
	got, err := c.reference(seed, sample, texts)
	if err != nil {
		return err
	}
	for i, k := range sample {
		if got[i] != pointWant(seed, k) {
			return fmt.Errorf("ground truth of %q: reference system and generator disagree", texts[i])
		}
	}
	return nil
}

// queryOp sends one /query and records it once check (which returns why the
// reply is wrong, or "") passes it. In the traced phase every other operation
// asks for the server's span tree.
func queryOp(ctx context.Context, cl *client, tr *tracer, node0, node1 *node, target string, check func(*reply) string) {
	traced := tr != nil && cl.ops%2 == 0
	opID := ""
	if traced {
		opID = cl.nextOp()
		target += "&trace=1"
	} else {
		cl.ops++
	}
	start := time.Now()
	rep, first, total, err := cl.query(ctx, target, opID)
	rec := cl.rec
	rec.attempted++
	if err != nil {
		rec.fail(err.Error())
		return
	}
	if why := check(&rep); why != "" {
		rec.fail(why)
		return
	}
	if tr != nil {
		if traced {
			tr.tracedMS = append(tr.tracedMS, ms(total))
			tr.addQuery(start, total, opID, rep, node0, node1)
		} else {
			tr.plainMS = append(tr.plainMS, ms(total))
		}
		return
	}
	rec.addQuery(start, first, total, rep.Accesses)
}

// addQuery builds one traced query's span tree: the client span, node0's
// handler span from the middleware, the server's own tree from the done
// line under it, and node1's /probe handler spans under the remote-probe
// spans that caused them.
func (t *tracer) addQuery(start time.Time, total time.Duration, opID string, rep reply, node0, node1 *node) {
	root := &spanNode{Name: "client", StartUS: t.us(start), DurUS: us(total)}
	t.queries++
	parent := root
	if hs := node0.mw.take(opID); len(hs) == 1 {
		h := root.child("service.handler", t.us(hs[0].start), us(hs[0].end.Sub(hs[0].start)))
		t.handlerUS = append(t.handlerUS, h.DurUS)
		t.respBytes += float64(hs[0].bytes)
		t.netUS = append(t.netUS, root.DurUS-h.DurUS)
		parent = h
	}
	if rep.Trace != nil {
		graft(parent, *rep.Trace)
		if parent != root {
			// The handler's own share: everything the executor's spans
			// (the children of the server's root span) do not cover.
			q := parent.Children[0]
			t.selfUS = append(t.selfUS, parent.self()+q.self())
		}
	}
	if node1 != nil {
		peers := node1.mw.take(rep.TraceID)
		var probes []*spanNode
		root.walk(func(n *spanNode) {
			if n.Name == "remote-probe" {
				probes = append(probes, n)
			}
		})
		if len(peers) == len(probes) { // a retry breaks the pairing; skip it
			for i, p := range peers {
				probes[i].child("peer.handler", t.us(p.start), us(p.end.Sub(p.start)))
				t.peerUS = append(t.peerUS, us(p.end.Sub(p.start)))
			}
		}
	}
	t.ops = append(t.ops, opTrace{Op: len(t.ops) + 1, Kind: "query", Root: root})
}

// serveHot: K uniform over a hot set that fits both caches.
func setupServeHot(cfg runConfig, mw0, mw1 *middleware) (*instance, error) {
	c, err := startServeCluster(cfg, mw0, mw1)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x686f74))
	keys := rng.Perm(c.persons)[:hotKeys]
	if err := c.checkPointTruth(cfg.seed, keys); err != nil {
		c.close()
		return nil, err
	}
	urls := make([]string, len(keys))
	wants := make([]answerSet, len(keys))
	for i, k := range keys {
		urls[i] = queryURL(c.node0.url, pointText(k))
		wants[i] = pointWant(cfg.seed, k)
	}
	inst := &instance{node0: c.node0, close: c.close, rssOps: 50000}
	inst.warm = func(ctx context.Context, cl *client) error {
		// One full pass over the hot set: every plan prepared, every
		// access cached. The first visit of a key costs its one access.
		for i := range urls {
			queryOp(ctx, cl, nil, c.node0, c.node1, urls[i], wants[i].checker(1))
		}
		return nil
	}
	inst.op = func(ctx context.Context, cl *client, tr *tracer) {
		i := cl.rng.Intn(len(urls))
		queryOp(ctx, cl, tr, c.node0, c.node1, urls[i], wants[i].checker(0))
	}
	inst.direct = func() (map[string]float64, error) { return directCacheGet(cfg) }
	if cfg.quick {
		inst.maxOps = 300
	}
	return inst, nil
}

// coldWalk is the serve-cold key order: one seeded permutation of every
// person, walked round and round. A key comes back only after every other
// key — more than either cache holds — so every text is new to the plan
// cache and every access is beyond LRU reach.
type coldWalk struct {
	perm []int
	pos  int
}

func newColdWalk(seed int64, persons int) *coldWalk {
	return &coldWalk{perm: rand.New(rand.NewSource(seed ^ 0x636f6c64)).Perm(persons)}
}

func (w *coldWalk) next() int {
	k := w.perm[w.pos]
	w.pos = (w.pos + 1) % len(w.perm)
	return k
}

// serveCold: every text new, every access a miss and a remote round trip.
func setupServeCold(cfg runConfig, mw0, mw1 *middleware) (*instance, error) {
	c, err := startServeCluster(cfg, mw0, mw1)
	if err != nil {
		return nil, err
	}
	walk := newColdWalk(cfg.seed, c.persons)
	// The oracle is consulted for a sample; every reply is checked against
	// the closed form the sample validates.
	if err := c.checkPointTruth(cfg.seed, walk.perm[:hotKeys]); err != nil {
		c.close()
		return nil, err
	}
	inst := &instance{node0: c.node0, close: c.close, rssOps: 20000}
	op := func(ctx context.Context, cl *client, tr *tracer) {
		k := walk.next()
		queryOp(ctx, cl, tr, c.node0, c.node1, queryURL(c.node0.url, pointText(k)), pointWant(cfg.seed, k).checker(1))
	}
	warmOps := 1000
	if cfg.quick {
		warmOps, inst.maxOps = 20, 300
	}
	inst.warm = func(ctx context.Context, cl *client) error {
		for i := 0; i < warmOps; i++ {
			op(ctx, cl, nil)
		}
		return nil
	}
	inst.op = op
	inst.direct = func() (map[string]float64, error) { return directCold(cfg, c.node0.sys) }
	return inst, nil
}

// serveScan: one fixed two-atom join with 512 answers, all accesses cached.
func setupServeScan(cfg runConfig, mw0, mw1 *middleware) (*instance, error) {
	c, err := startServeCluster(cfg, mw0, mw1)
	if err != nil {
		return nil, err
	}
	wants, err := c.reference(cfg.seed, c.catPersons, []string{scanText})
	if err != nil {
		c.close()
		return nil, err
	}
	want := wants[0]
	if want.N != 4*scanPersons {
		c.close()
		return nil, fmt.Errorf("scan ground truth has %d answers, want %d", want.N, 4*scanPersons)
	}
	target := queryURL(c.node0.url, scanText)
	inst := &instance{node0: c.node0, close: c.close, rssOps: 300}
	inst.warm = func(ctx context.Context, cl *client) error {
		// The first request pays one access per cat person plus cat's own.
		queryOp(ctx, cl, nil, c.node0, c.node1, target, want.checker(-1))
		for i := 0; i < 4; i++ {
			queryOp(ctx, cl, nil, c.node0, c.node1, target, want.checker(0))
		}
		return nil
	}
	inst.op = func(ctx context.Context, cl *client, tr *tracer) {
		queryOp(ctx, cl, tr, c.node0, c.node1, target, want.checker(0))
	}
	inst.direct = func() (map[string]float64, error) { return directCacheGet(cfg) }
	if cfg.quick {
		inst.maxOps = 6
	}
	return inst, nil
}
