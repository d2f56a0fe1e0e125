package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toorjah/internal/remote"
	"toorjah/internal/schema"
	"toorjah/internal/source"
	"toorjah/internal/storage"
)

// writeExample lays out the paper's Example 1 as
// the schema file and CSV data directory the CLI consumes.
func writeExample(t *testing.T) (schemaFile, dataDir string) {
	t.Helper()
	dir := t.TempDir()
	schemaFile = filepath.Join(dir, "schema.txt")
	if err := os.WriteFile(schemaFile, []byte(`
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir = filepath.Join(dir, "data")
	if err := os.Mkdir(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	csvs := map[string]string{
		"r1": "modugno,italy,1928\nmadonna,usa,1958\ndylan,usa,1941\n",
		"r2": "volare,1958,modugno\nvogue,1990,madonna\nhurricane,1976,dylan\n",
		"r3": "madonna,like_a_virgin\ndylan,desire\n",
	}
	for name, content := range csvs {
		if err := os.WriteFile(filepath.Join(dataDir, name+".csv"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return schemaFile, dataDir
}

const exampleQuery = "q(N) :- r1(A, N, Y1), r2(volare, Y2, A)"

// TestCLIEndToEnd: the default (pipelined) path loads schema and CSVs,
// answers Example 1, and prints access statistics.
func TestCLIEndToEnd(t *testing.T) {
	schemaFile, dataDir := writeExample(t)
	var out strings.Builder
	err := run([]string{"-schema", schemaFile, "-data", dataDir, "-query", exampleQuery}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "italy") {
		t.Errorf("output lacks the answer 'italy':\n%s", got)
	}
	if !strings.Contains(got, "-- 1 answer(s)") {
		t.Errorf("output lacks the answer summary:\n%s", got)
	}
	if !strings.Contains(got, "access(es)") || !strings.Contains(got, "round trip(s)") {
		t.Errorf("output lacks access statistics:\n%s", got)
	}
}

// TestCLICommentedCQ: a -query is read as a union, one disjunct per line
// with '#' lines ignored, so a CQ after a comment line prints the answers
// and summary the bare CQ prints, as a CQ, not a union.
func TestCLICommentedCQ(t *testing.T) {
	schemaFile, dataDir := writeExample(t)
	answers := func(query string) string {
		t.Helper()
		var out strings.Builder
		if err := run([]string{"-schema", schemaFile, "-data", dataDir, "-query", query}, &out); err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		var lines []string
		for _, line := range strings.Split(out.String(), "\n") {
			line, _, _ = strings.Cut(line, "    (after ") // answer lines carry their timing
			line, _, _ = strings.Cut(line, " in ")        // and so does the summary
			lines = append(lines, line)
		}
		return strings.Join(lines, "\n")
	}
	bare := answers(exampleQuery)
	if got := answers("# note\n" + exampleQuery); got != bare || !strings.Contains(got, "italy") {
		t.Errorf("commented CQ printed\n%s\nwant the bare CQ's\n%s", got, bare)
	}
}

// TestCLINaive: the -naive strategy agrees on the answer.
func TestCLINaive(t *testing.T) {
	schemaFile, dataDir := writeExample(t)
	var out strings.Builder
	err := run([]string{"-schema", schemaFile, "-data", dataDir, "-naive", "-query", exampleQuery}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "italy") || !strings.Contains(got, "-- 1 answer(s)") {
		t.Errorf("naive output wrong:\n%s", got)
	}
}

// TestCLIUnbatched: -max-batch -1 must not change the answer, and the
// round-trip count then equals the access count.
func TestCLIUnbatched(t *testing.T) {
	schemaFile, dataDir := writeExample(t)
	var out strings.Builder
	err := run([]string{"-schema", schemaFile, "-data", dataDir, "-max-batch", "-1", "-query", exampleQuery}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "italy") {
		t.Errorf("unbatched output lacks the answer:\n%s", got)
	}
	// "-- N access(es) in N round trip(s)" with batching off.
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "round trip(s)") {
			f := strings.Fields(line)
			if len(f) > 4 && f[1] != f[4] {
				t.Errorf("unbatched accesses != round trips: %q", line)
			}
		}
	}
}

// A union over the example data: both disjuncts stream into one
// deduplicated answer set (usa appears via madonna and dylan but once).
const exampleUCQ = "q(N) :- r1(A, N, Y1), r2(volare, Y2, A)\nq(N) :- r1(A, N, Y1), r3(A, AL)"

// TestCLIUCQ: a multi-line -query runs as a union of conjunctive queries,
// streaming deduplicated answers with merged access statistics.
func TestCLIUCQ(t *testing.T) {
	schemaFile, dataDir := writeExample(t)
	var out strings.Builder
	err := run([]string{"-schema", schemaFile, "-data", dataDir, "-query", exampleUCQ}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// Disjunct 1 answers italy; disjunct 2 answers usa (twice in the data,
	// once in the union).
	for _, want := range []string{"italy", "usa", "union of 2 disjunct(s)", "-- 2 answer(s)"} {
		if !strings.Contains(got, want) {
			t.Errorf("UCQ output lacks %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "usa") != 1 {
		t.Errorf("usa streamed more than once (dedup broken):\n%s", got)
	}
	if !strings.Contains(got, "access(es)") {
		t.Errorf("UCQ output lacks access statistics:\n%s", got)
	}
}

// TestCLIUCQNaive: the naive strategy agrees on the union.
func TestCLIUCQNaive(t *testing.T) {
	schemaFile, dataDir := writeExample(t)
	var out strings.Builder
	err := run([]string{"-schema", schemaFile, "-data", dataDir, "-naive", "-query", exampleUCQ}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "italy") || !strings.Contains(got, "usa") || !strings.Contains(got, "-- 2 answer(s)") {
		t.Errorf("naive UCQ output wrong:\n%s", got)
	}
}

// TestCLIUCQPlan: -plan on a union prints one plan per disjunct; -dot is a
// single-CQ view and errors.
func TestCLIUCQPlan(t *testing.T) {
	schemaFile, _ := writeExample(t)
	var out strings.Builder
	if err := run([]string{"-schema", schemaFile, "-plan", "-query", exampleUCQ}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "disjunct 1") || !strings.Contains(got, "disjunct 2") {
		t.Errorf("UCQ plan output wrong:\n%s", got)
	}
	if err := run([]string{"-schema", schemaFile, "-dot", "-query", exampleUCQ}, &out); err == nil {
		t.Error("-dot on a UCQ must error")
	}
}

// TestCLIPlanOnly: -plan prints the optimization outcome without data.
func TestCLIPlanOnly(t *testing.T) {
	schemaFile, _ := writeExample(t)
	var out strings.Builder
	err := run([]string{"-schema", schemaFile, "-plan", "-query", exampleQuery}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "relevant relations") {
		t.Errorf("plan output wrong:\n%s", got)
	}
}

// TestCLIDot: -dot prints the d-graph.
func TestCLIDot(t *testing.T) {
	schemaFile, _ := writeExample(t)
	var out strings.Builder
	err := run([]string{"-schema", schemaFile, "-dot", "-query", exampleQuery}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "digraph") {
		t.Errorf("dot output wrong:\n%s", got)
	}
}

// TestCLIUsageErrors: missing required flags are a usage error, not a run.
func TestCLIUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-query", exampleQuery}, &out); err != errUsage {
		t.Errorf("missing -schema: err = %v, want errUsage", err)
	}
	schemaFile, _ := writeExample(t)
	if err := run([]string{"-schema", schemaFile}, &out); err != errUsage {
		t.Errorf("missing -query: err = %v, want errUsage", err)
	}
}

// TestCLIBadSchema: parse errors surface as errors, not panics.
func TestCLIBadSchema(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "schema.txt")
	if err := os.WriteFile(bad, []byte("not a schema line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-schema", bad, "-data", dir, "-query", exampleQuery}, &out); err == nil {
		t.Error("bad schema must error")
	}
}

// TestCLIRemote: -remote attaches a federation peer, so the CLI answers a
// query joining a local CSV relation with relations served by another node.
func TestCLIRemote(t *testing.T) {
	// The peer serves r2 and r3; only r1 exists locally.
	peerSch := schema.MustParse(`
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`)
	db := storage.NewDatabase()
	for name, rows := range map[string][]storage.Row{
		"r2": {{"volare", "1958", "modugno"}, {"vogue", "1990", "madonna"}},
		"r3": {{"madonna", "like_a_virgin"}},
	} {
		tab, err := db.Create(name, peerSch.Relation(name).Arity())
		if err != nil {
			t.Fatal(err)
		}
		tab.InsertAll(rows)
	}
	reg, err := source.FromDatabase(peerSch, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(remote.PeerMux(reg))
	defer ts.Close()

	dir := t.TempDir()
	schemaFile := filepath.Join(dir, "schema.txt")
	if err := os.WriteFile(schemaFile, []byte(`
r1^ioo(Artist, Nation, Year)
r2^oio(Title, Year, Artist)
r3^oo(Artist, Album)
`), 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(dir, "data")
	if err := os.Mkdir(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, "r1.csv"),
		[]byte("modugno,italy,1928\nmadonna,usa,1958\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	err = run([]string{"-schema", schemaFile, "-data", dataDir,
		"-remote", ts.URL, "-query", exampleQuery}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "italy") {
		t.Errorf("federated CLI output lacks the answer 'italy':\n%s", out.String())
	}

	// All-remote: no -data at all, explicit relation list.
	var out2 strings.Builder
	err = run([]string{"-schema", schemaFile,
		"-remote", ts.URL + "=r2,r3", "-query", "q(T) :- r2(T, 1958, A)"}, &out2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2.String(), "volare") {
		t.Errorf("all-remote CLI output lacks 'volare':\n%s", out2.String())
	}

	// An unreachable peer is a startup error, not a silent empty answer.
	var out3 strings.Builder
	if err := run([]string{"-schema", schemaFile, "-data", dataDir,
		"-remote", "http://127.0.0.1:1", "-query", exampleQuery}, &out3); err == nil {
		t.Error("dead peer: want error")
	}
}
