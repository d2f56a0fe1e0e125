package toorjah_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"strings"

	"toorjah"
	"toorjah/internal/remote"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
)

// ExampleNewSystem is the paper's Example 1: the query binds neither
// limited source directly, so the only way in is the free relation r3 —
// which the query never mentions — whose values unlock r1, whose values
// unlock r2, recursively. The plan names the constant volare by the
// artificial relation l_0 that holds it.
func ExampleNewSystem() {
	sch, err := toorjah.ParseSchema(`
		r1^ioo(Artist, Nation, Year)
		r2^oio(Title, Year, Artist)
		r3^oo(Artist, Album)`)
	if err != nil {
		log.Fatal(err)
	}
	sys := toorjah.NewSystem(sch)
	sys.BindRows("r1", toorjah.Row{"modugno", "italy", "1958"})
	sys.BindRows("r2", toorjah.Row{"volare", "1958", "modugno"})
	sys.BindRows("r3", toorjah.Row{"modugno", "hits"})

	q, err := sys.Prepare("q(N) :- r1(A, N, Y1), r2(volare, Y2, A)")
	if err != nil {
		log.Fatal(err)
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("relevant:", strings.Join(q.RelevantRelations(), ", "))
	fmt.Println("answers:", strings.Join(res.SortedAnswers(), " "))
	fmt.Println("accesses:", res.TotalAccesses())
	// Output:
	// relevant: l_0, r1, r2, r3
	// answers: italy
	// accesses: 3
}

// ExampleSystem_Prepare_negation checks a conflict of interest with safe
// negation: reviewers who have not published at their own conference. The
// negated atom never provides bindings; it is probed only with the
// reviewer names the positive atom justifies.
func ExampleSystem_Prepare_negation() {
	sch, err := toorjah.ParseSchema(`
		reviewers^oo(Person, ConfName)
		published^io(Person, ConfName)`)
	if err != nil {
		log.Fatal(err)
	}
	sys := toorjah.NewSystem(sch)
	sys.BindRows("reviewers",
		toorjah.Row{"alice", "icde"}, toorjah.Row{"bob", "icde"}, toorjah.Row{"carol", "vldb"})
	sys.BindRows("published",
		toorjah.Row{"bob", "icde"}, toorjah.Row{"alice", "vldb"}, toorjah.Row{"carol", "vldb"})

	q, err := sys.Prepare("clean(R, C) :- reviewers(R, C), not published(R, C)")
	if err != nil {
		log.Fatal(err)
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range res.SortedAnswers() {
		fmt.Println(strings.ReplaceAll(a, ",", " @ "))
	}
	fmt.Println("accesses:", res.TotalAccesses())
	// Output:
	// alice @ icde
	// accesses: 4
}

// ExampleSystem_PrepareUCQ executes a union of conjunctive queries: one
// disjunct per line, disjuncts running concurrently, answers deduplicated
// across them.
func ExampleSystem_PrepareUCQ() {
	sch, err := toorjah.ParseSchema(`
		pub1^io(Paper, Person)
		pub2^io(Paper, Person)`)
	if err != nil {
		log.Fatal(err)
	}
	sys := toorjah.NewSystem(sch)
	sys.BindRows("pub1", toorjah.Row{"p1", "alice"}, toorjah.Row{"p2", "bob"})
	sys.BindRows("pub2", toorjah.Row{"p1", "alice"}, toorjah.Row{"p3", "carol"})

	u, err := sys.PrepareUCQ(`
		q(R) :- pub1(p1, R)
		q(R) :- pub2(p1, R)
		q(R) :- pub2(p3, R)`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := u.Execute(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("union answers:", strings.Join(res.SortedAnswers(), " "))
	fmt.Println("disjuncts:", len(u.Disjuncts()))
	// Output:
	// union answers: alice carol
	// disjuncts: 3
}

// ExampleSystem_AttachRemote federates a relation from a peer node: the
// peer serves the probe protocol (in production a toorjahd process; here
// an in-process test server), and this node attaches its relation as an
// ordinary source — cache, batching and executors compose unchanged.
func ExampleSystem_AttachRemote() {
	sch, err := toorjah.ParseSchema(`
		pub1^oo(Paper, Person)
		rev^io(Person, ConfName)`)
	if err != nil {
		log.Fatal(err)
	}

	// The peer owns rev — a limited source: the reviewer name must be bound
	// before it answers — and serves /probe + /schema (toorjahd's
	// endpoints). Probes of it ride the batched federation wire protocol.
	peerTab := storage.NewTable("rev", 2)
	peerTab.InsertAll([]storage.Row{{"alice", "icde"}})
	peerRel := schema.MustParse("rev^io(Person, ConfName)").Relations()[0]
	peerSrc, err := source.NewTableSource(peerRel, peerTab)
	if err != nil {
		log.Fatal(err)
	}
	peerReg := source.NewRegistry()
	peerReg.Bind(peerSrc)
	peer := httptest.NewServer(remote.PeerMux(peerReg))
	defer peer.Close()

	// This node owns pub1 locally (freely browsable) and sources rev from
	// the peer: extracted author names become the probe bindings.
	sys := toorjah.NewSystem(sch)
	sys.BindRows("pub1", toorjah.Row{"p1", "alice"}, toorjah.Row{"p2", "bob"})
	if err := sys.AttachRemote(context.Background(), peer.URL+"=rev"); err != nil {
		log.Fatal(err)
	}

	q, err := sys.Prepare("q(R, C) :- pub1(P, R), rev(R, C)")
	if err != nil {
		log.Fatal(err)
	}
	res, err := q.Execute(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("federated answers:", strings.Join(res.SortedAnswers(), " "))
	fmt.Println("peers attached:", len(sys.RemotePeers()))
	// Output:
	// federated answers: alice,icde
	// peers attached: 1
}

// ExampleSystem_Insert mutates a live relation between executions of one
// prepared query: each mutating batch advances the relation's epoch, and
// the next execution — same plan, same cache — answers over the new data.
// A re-execution over an unchanged epoch is served by the cache alone.
func ExampleSystem_Insert() {
	sch, err := toorjah.ParseSchema(`rev^oo(Person, ConfName)`)
	if err != nil {
		log.Fatal(err)
	}
	sys := toorjah.NewSystem(sch, toorjah.WithCache(toorjah.CacheOptions{}))
	sys.BindRows("rev", toorjah.Row{"alice", "icde"})

	q, err := sys.Prepare("q(R) :- rev(R, icde)")
	if err != nil {
		log.Fatal(err)
	}
	run := func() {
		res, err := q.Execute(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: %s; accesses %d\n", sys.RelationEpoch("rev"),
			strings.Join(res.SortedAnswers(), " "), res.TotalAccesses())
	}
	run()
	run()
	if _, err := sys.Insert("rev", toorjah.Row{"bob", "icde"}); err != nil {
		log.Fatal(err)
	}
	run()
	if _, err := sys.Delete("rev", toorjah.Row{"alice", "icde"}); err != nil {
		log.Fatal(err)
	}
	run()
	if _, err := sys.LoadCSV("rev", strings.NewReader("carol,icde\ndave,vldb\n")); err != nil {
		log.Fatal(err)
	}
	run()
	// Output:
	// epoch 2: alice; accesses 1
	// epoch 2: alice; accesses 0
	// epoch 3: alice bob; accesses 1
	// epoch 4: bob; accesses 1
	// epoch 5: bob carol; accesses 1
}
