package load

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"toorjah"
	"toorjah/internal/obs"
	"toorjah/internal/service"
	"toorjah/internal/storage"
	"toorjah/internal/wal"
)

// Node is one in-process toorjahd instance: the real service handler (the
// exact route table a deployment serves) on a real loopback listener, plus
// an outage switch for failure injection.
type Node struct {
	Name string
	Sys  *toorjah.System
	Srv  *service.Server
	URL  string

	hs  *http.Server
	lis net.Listener
	// outage, while set (runFailure), answers every request 503: the
	// client-visible shape of a crashed or partitioned peer — connections
	// still open, service gone.
	outage atomic.Bool
	wlog   *wal.Log
}

// startNode serves the system on a loopback port behind the outage switch.
func startNode(name string, sys *toorjah.System, execOpts toorjah.Options, svcOpts ...service.Option) (*Node, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("load: node %s: %w", name, err)
	}
	n := &Node{Name: name, Sys: sys, Srv: service.New(sys, execOpts, svcOpts...), lis: lis}
	n.URL = "http://" + lis.Addr().String()
	inner := n.Srv.Handler()
	n.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.outage.Load() {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	})}
	go n.hs.Serve(lis) //nolint — Serve returns when Close is called
	return n, nil
}

// Scrape fetches and parses the node's /metrics exposition.
func (n *Node) Scrape(ctx context.Context, client *http.Client) (*obs.Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("load: scrape %s: %w", n.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("load: scrape %s: status %d", n.Name, resp.StatusCode)
	}
	return obs.ParseExposition(resp.Body)
}

// Close stops the listener; in-flight requests are abandoned (this is a
// harness, not a deployment — drain timing is toorjahd's job). A node
// running durable also closes its write-ahead log.
func (n *Node) Close() {
	n.hs.Close()
	if n.wlog != nil {
		n.wlog.Close()
	}
}

// Cluster is the harness's target: real nodes, plus a reference system
// holding every relation locally — the ground-truth oracle expectations
// are computed against — and the skewed dataset of the adaptive-ordering
// comparison.
type Cluster struct {
	Nodes []*Node
	// Ref answers every suite query over purely local data; ground-truth
	// expectations (Expect.FromGroundTruth) are computed against it with
	// the naive reference executor.
	Ref *toorjah.System

	skew *storage.Database
}

// Close shuts every node down.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		n.Close()
	}
}

// defaultSchemaText is the workload schema of the built-in suites:
//
//	pub    free (all-output): point probes and fat scans
//	conf   input-bound by person, held by the peer node: every probe is a
//	       federated round trip (until cached)
//	storm  free, never queried: the ingest-storm target, so storms advance
//	       epochs without invalidating the scored queries' ground truth
//	seed/big/small  the skewed adaptive-ordering demo: big and small join
//	       the seeded key order-equivalently, small is empty, so only
//	       linearization decides how many accesses a doomed join costs
const defaultSchemaText = `
	pub^oo(P, T)
	conf^ioo(P, C, Y)
	storm^oo(K, V)
	seed^o(A)
	big^io(A, B)
	small^io(A, C)`

// DefaultClusterOptions shapes StartDefaultCluster.
type DefaultClusterOptions struct {
	// Latency is the simulated per-access source latency of every node
	// (0 = as fast as the hardware allows).
	Latency time.Duration
	// Adaptive turns live-size plan ordering on for the query-serving node.
	Adaptive bool
	// WALDir, when set, runs the query-serving node durable: every applied
	// mutation batch is appended to a write-ahead log under this directory
	// before its acknowledgement, and /stats + /metrics grow the WAL
	// accounting. The cluster's dataset is still rebuilt in memory each
	// run — state recovered from a previous run's log stays on disk,
	// unreplayed — so the log measures durable-write overhead under load,
	// not recovery. "" keeps the cluster purely in-memory.
	WALDir string
	// Fsync is the durable node's WAL flush policy (always, interval,
	// never; default always). Ignored without WALDir.
	Fsync string
}

// StartDefaultCluster stands up the built-in two-node topology: node0
// serves queries and holds every relation except conf, which node1 holds
// and node0 attaches as a federated source — so query scenarios exercise
// local tables, remote probes, the shared access cache and the resilient
// remote client in one mix.
func StartDefaultCluster(ctx context.Context, opts DefaultClusterOptions) (*Cluster, error) {
	sch, err := toorjah.ParseSchema(defaultSchemaText)
	if err != nil {
		return nil, err
	}
	pub, conf, bigRows, seeds := defaultData()

	// node1: the peer holding conf.
	peerDB := storage.NewDatabase()
	fill(peerDB, "conf", 3, conf)
	peerSys := toorjah.NewSystem(sch, toorjah.WithLatency(opts.Latency))
	if err := peerSys.BindDatabase(peerDB); err != nil {
		return nil, err
	}
	peer, err := startNode("node1", peerSys, toorjah.Options{})
	if err != nil {
		return nil, err
	}

	// node0: everything else local, conf attached from node1.
	mainDB := storage.NewDatabase()
	fill(mainDB, "pub", 2, pub)
	fill(mainDB, "storm", 2, nil)
	fill(mainDB, "seed", 1, seeds)
	fill(mainDB, "big", 2, bigRows)
	fill(mainDB, "small", 2, nil)
	sysOpts := []toorjah.SystemOption{
		toorjah.WithLatency(opts.Latency),
		toorjah.WithCache(toorjah.CacheOptions{}),
		toorjah.WithRemoteOptions(toorjah.RemoteOptions{
			Timeout:   5 * time.Second,
			RetryBase: time.Millisecond,
			RetryMax:  20 * time.Millisecond,
		}),
	}
	if opts.Adaptive {
		sysOpts = append(sysOpts, toorjah.WithAdaptiveOrdering())
	}
	mainSys := toorjah.NewSystem(sch, sysOpts...)
	if err := mainSys.BindDatabase(mainDB); err != nil {
		peer.Close()
		return nil, err
	}
	if err := mainSys.AttachRemote(ctx, peer.URL+"=conf"); err != nil {
		peer.Close()
		return nil, fmt.Errorf("load: attach peer: %w", err)
	}
	var svcOpts []service.Option
	var wlog *wal.Log
	if opts.WALDir != "" {
		wlog, _, err = wal.Open(wal.Options{Dir: opts.WALDir, Fsync: opts.Fsync})
		if err != nil {
			peer.Close()
			return nil, fmt.Errorf("load: open wal: %w", err)
		}
		service.WireWAL(mainSys, wlog)
		svcOpts = append(svcOpts, service.WithWAL(wlog))
	}
	main, err := startNode("node0", mainSys, toorjah.Options{}, svcOpts...)
	if err != nil {
		if wlog != nil {
			wlog.Close()
		}
		peer.Close()
		return nil, err
	}
	main.wlog = wlog

	// The oracle: same schema, every relation local, no cache, no peers.
	refDB := storage.NewDatabase()
	fill(refDB, "pub", 2, pub)
	fill(refDB, "conf", 3, conf)
	fill(refDB, "storm", 2, nil)
	fill(refDB, "seed", 1, seeds)
	fill(refDB, "big", 2, bigRows)
	fill(refDB, "small", 2, nil)
	ref := toorjah.NewSystem(sch)
	if err := ref.BindDatabase(refDB); err != nil {
		main.Close()
		peer.Close()
		return nil, err
	}

	skew := storage.NewDatabase()
	fill(skew, "seed", 1, seeds)
	fill(skew, "big", 2, bigRows)
	fill(skew, "small", 2, nil)

	return &Cluster{Nodes: []*Node{main, peer}, Ref: ref, skew: skew}, nil
}

// fill creates a table with the given rows (panic-free for the fixed
// schema this file controls).
func fill(db *storage.Database, name string, arity int, rows []toorjah.Row) {
	t, err := db.Create(name, arity)
	if err != nil {
		panic(err)
	}
	t.InsertAll(rows)
}

// defaultData generates the deterministic built-in dataset: 40 persons
// with 5 publications each, 2 conference entries per person on the peer,
// and the skewed seed/big/small instance (10 seeded keys, 10 big rows
// each, small empty).
func defaultData() (pub, conf, bigRows, seeds []toorjah.Row) {
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("p%d", i)
		for j := 0; j < 5; j++ {
			pub = append(pub, toorjah.Row{p, fmt.Sprintf("title_%d_%d", i, j)})
		}
		for j := 0; j < 2; j++ {
			conf = append(conf, toorjah.Row{p, fmt.Sprintf("conf%d", (i+j)%7), fmt.Sprintf("y%d", 2000+(i+j)%9)})
		}
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		seeds = append(seeds, toorjah.Row{k})
		for j := 0; j < 10; j++ {
			bigRows = append(bigRows, toorjah.Row{k, fmt.Sprintf("v%d_%d", i, j)})
		}
	}
	return pub, conf, bigRows, seeds
}

// CompareAdaptive executes the query against two fresh systems over the
// cluster's skewed dataset — adaptive ordering on vs off, no cache, the
// fast-failing executor — and returns both access counts. The data is
// shared read-only; the systems are throwaway.
func (c *Cluster) CompareAdaptive(ctx context.Context, query string) (adaptive, static int, err error) {
	run := func(opts ...toorjah.SystemOption) (int, error) {
		sys := toorjah.NewSystem(c.Ref.Schema(), opts...)
		if err := sys.BindDatabase(c.skew); err != nil {
			return 0, err
		}
		q, err := sys.Prepare(query)
		if err != nil {
			return 0, err
		}
		res, err := q.Execute(ctx)
		if err != nil {
			return 0, err
		}
		return res.TotalAccesses(), nil
	}
	if static, err = run(); err != nil {
		return 0, 0, err
	}
	if adaptive, err = run(toorjah.WithAdaptiveOrdering()); err != nil {
		return 0, 0, err
	}
	return adaptive, static, nil
}
