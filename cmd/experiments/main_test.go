package main

import (
	"fmt"
	"strings"
	"testing"

	"toorjah/internal/gen"
)

// TestDGraphFigures: every d-graph figure renders DOT after its query,
// relevant and irrelevant header lines — the full d-graph for Figs. 2, 7, 8
// and 9, the optimized one for Fig. 4.
func TestDGraphFigures(t *testing.T) {
	queries := map[string]string{"2": "q(C) :- r1(a, B), r2(B, C)", "4": "q(C) :- r1(a, B), r2(B, C)",
		"7": gen.PublicationQueries[0], "8": gen.PublicationQueries[1], "9": gen.PublicationQueries[2]}
	for fig, q := range queries {
		var out strings.Builder
		if err := run([]string{"-fig", fig}, &out); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
		lines := strings.SplitN(out.String(), "\n", 5)
		if len(lines) < 5 || lines[0] != "// query: "+q ||
			!strings.HasPrefix(lines[1], "// relevant: [") || !strings.HasPrefix(lines[2], "// irrelevant: [") {
			t.Fatalf("-fig %s: header lines wrong:\n%.300s", fig, out.String())
		}
		graph := "digraph dgraph {"
		if fig == "4" {
			graph = "digraph optimized {"
		}
		if lines[3] != graph || !strings.HasSuffix(lines[4], "}\n") || !strings.Contains(lines[4], " -> ") {
			t.Errorf("-fig %s: want %q with arcs, got:\n%.300s", fig, graph, out.String())
		}
	}
}

// TestFig6Smoke: the Fig. 6 reproduction renders its table on a scaled-down
// instance.
func TestFig6Smoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "6", "-tuples", "120", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Fig. 6", "naive", "optimized"} {
		if !strings.Contains(got, want) {
			t.Errorf("Fig6 output missing %q:\n%.300s", want, got)
		}
	}
}

// TestFig10Smoke: the aggregate experiment runs on a tiny random workload.
func TestFig10Smoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "10", "-schemas", "2", "-queries", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 10") {
		t.Errorf("Fig10 output:\n%.300s", out.String())
	}
}

// TestFig11Smoke: the timing experiment runs with a microscopic latency.
func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	var out strings.Builder
	if err := run([]string{"-fig", "11", "-schemas", "1", "-queries", "2", "-latency-us", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 11") {
		t.Errorf("Fig11 output:\n%.300s", out.String())
	}
}

// TestUsageErrors: unknown figures and bad flags fail cleanly.
func TestUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "12"}, &out); err == nil {
		t.Error("unknown figure: want error")
	}
	if err := run([]string{"-not-a-flag"}, &out); err != errUsage {
		t.Errorf("bad flag: err = %v, want errUsage", err)
	}
}

// TestUsageAndErrors: a number between or beyond the D-graph figures is not
// a figure, and the custom -schema/-query view is not a mode of this command
// (it is toorjah -dot): both fail before printing anything.
func TestUsageAndErrors(t *testing.T) {
	for _, fig := range []string{"3", "5", "99"} {
		var out strings.Builder
		err := run([]string{"-fig", fig}, &out)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown figure %q", fig)) {
			t.Errorf("-fig %s: err = %v, want unknown figure", fig, err)
		}
		if out.Len() != 0 {
			t.Errorf("-fig %s printed %q", fig, out.String())
		}
	}
	for _, args := range [][]string{
		{"-schema", "/does/not/exist", "-query", "q(X) :- r(X)"},
		{"-query", "q(X) :-"},
		{"-optimized"},
	} {
		var out strings.Builder
		if err := run(args, &out); err != errUsage {
			t.Errorf("%v: err = %v, want errUsage", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed %q", args, out.String())
		}
	}
}
