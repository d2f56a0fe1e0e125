package load

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestEvaluate(t *testing.T) {
	q := Scenario{Name: "q", Kind: KindQuery, Query: "q(X) :- r(X)"}
	budget := q
	budget.Expect.ErrorBudget = 0.10
	trunc := q
	trunc.Expect.MaxTruncatedFrac = 0.5
	cmp := Scenario{Name: "c", Kind: KindCompare, Query: "q(X) :- r(X)",
		Expect: Expect{AdaptiveNoWorse: true}}
	flap := Scenario{Name: "f", Kind: KindFailure, OutageMS: 100}

	cases := []struct {
		name   string
		sc     Scenario
		m      Measured
		pass   bool
		reason string // substring of a failure reason, "" when passing
	}{
		{"clean run passes", q, Measured{Requests: 100}, true, ""},
		{"no requests fails", q, Measured{}, false, "no requests"},
		{"failure scenario may be starved", flap, Measured{}, true, ""},
		{"zero budget rejects any error", q, Measured{Requests: 100, Errors: 1}, false, "error rate"},
		{"errors within budget pass", budget, Measured{Requests: 100, Errors: 10}, true, ""},
		{"errors beyond budget fail", budget, Measured{Requests: 100, Errors: 11}, false, "error rate"},
		{"truncation rejected by default", q, Measured{Requests: 10, Truncated: 1}, false, "truncated rate"},
		{"truncation within cap passes", trunc, Measured{Requests: 10, Truncated: 5}, true, ""},
		{"truncation beyond cap fails", trunc, Measured{Requests: 10, Truncated: 6}, false, "truncated rate"},
		{"any mismatch fails", q, Measured{Requests: 100, Mismatches: 1}, false, "contradicted"},
		{"adaptive no worse passes on tie", cmp, Measured{Requests: 1, AdaptiveAccesses: 5, StaticAccesses: 5}, true, ""},
		{"adaptive better passes", cmp, Measured{Requests: 1, AdaptiveAccesses: 3, StaticAccesses: 5}, true, ""},
		{"adaptive worse fails", cmp, Measured{Requests: 1, AdaptiveAccesses: 6, StaticAccesses: 5}, false, "adaptive ordering"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pass, reasons := Evaluate(tc.sc, tc.m)
			if pass != tc.pass {
				t.Fatalf("Evaluate() pass = %v, want %v (reasons %v)", pass, tc.pass, reasons)
			}
			if tc.reason == "" {
				if len(reasons) != 0 {
					t.Fatalf("passing evaluation carried reasons %v", reasons)
				}
				return
			}
			found := false
			for _, r := range reasons {
				if strings.Contains(r, tc.reason) {
					found = true
				}
			}
			if !found {
				t.Fatalf("reasons %v lack %q", reasons, tc.reason)
			}
		})
	}
}

func TestHashAnswers(t *testing.T) {
	a := HashAnswers([][]string{{"x", "y"}, {"z", "w"}})
	b := HashAnswers([][]string{{"z", "w"}, {"x", "y"}})
	if a != b {
		t.Fatalf("hash is order-dependent: %s vs %s", a, b)
	}
	if c := HashAnswers([][]string{{"x", "y"}}); c == a {
		t.Fatal("different answer sets collided")
	}
	// Concatenation across cells must not alias: {"ab",""} vs {"a","b"}.
	if HashAnswers([][]string{{"ab", ""}}) == HashAnswers([][]string{{"a", "b"}}) {
		t.Fatal("cell boundaries are not separated")
	}
	if len(a) != 16 {
		t.Fatalf("digest %q is not 16 hex chars", a)
	}
}

func TestParseSuite(t *testing.T) {
	good := `{"name": "s", "scenarios": [
		{"name": "q", "kind": "query", "weight": 1, "query": "q(X) :- r(X)",
		 "expect": {"from_ground_truth": true}},
		{"name": "i", "kind": "ingest", "weight": 1, "relation": "r", "rows": 5},
		{"name": "f", "kind": "failure", "weight": 1, "node": 1, "outage_ms": 50},
		{"name": "c", "kind": "compare", "query": "q(X) :- r(X)",
		 "expect": {"adaptive_no_worse": true}}
	]}`
	s, err := ParseSuite(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "s" || len(s.Scenarios) != 4 {
		t.Fatalf("parsed %+v", s)
	}
	if !s.Scenarios[0].Expect.FromGroundTruth || s.Scenarios[2].OutageMS != 50 {
		t.Fatalf("fields lost: %+v", s.Scenarios)
	}

	bad := []string{
		`{"scenarios": [{"name": "q", "kind": "query", "query": "x"}]}`,        // no suite name
		`{"name": "s", "scenarios": []}`,                                       // empty
		`{"name": "s", "scenarios": [{"name": "q", "kind": "query"}]}`,         // query without text
		`{"name": "s", "scenarios": [{"name": "i", "kind": "ingest"}]}`,        // ingest without relation
		`{"name": "s", "scenarios": [{"name": "f", "kind": "failure"}]}`,       // failure without outage
		`{"name": "s", "scenarios": [{"name": "x", "kind": "nonsense"}]}`,      // unknown kind
		`{"name": "s", "scenarios": [{"name": "q", "kind": "query", "qq":1}]}`, // unknown field
	}
	for _, in := range bad {
		if _, err := ParseSuite(strings.NewReader(in)); err == nil {
			t.Errorf("ParseSuite accepted %s", in)
		}
	}
}

func TestBuiltinSuitesValidate(t *testing.T) {
	for _, name := range BuiltinSuiteNames() {
		s, ok := BuiltinSuite(name)
		if !ok {
			t.Fatalf("BuiltinSuite(%q) missing", name)
		}
		for i, sc := range s.Scenarios {
			if err := validateScenario(sc); err != nil {
				t.Errorf("suite %s scenario %d (%s): %v", name, i, sc.Name, err)
			}
		}
	}
	if _, ok := BuiltinSuite("nonsense"); ok {
		t.Error("BuiltinSuite(nonsense) should not resolve")
	}
}

// TestRunMixedSuite drives the full mixed suite — queries, UCQs, ingest
// storms, peer outages, the adaptive comparison — against the in-process
// two-node cluster for a short timed phase, and checks the report's shape
// and the JSON round trip. Under -race this doubles as the harness's
// concurrency test.
func TestRunMixedSuite(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl, err := StartDefaultCluster(ctx, DefaultClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	suite, _ := BuiltinSuite("mixed")
	rep, err := Run(ctx, cl, suite, Config{Clients: 4, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(suite.Scenarios) {
		t.Fatalf("report has %d results, want %d", len(rep.Results), len(suite.Scenarios))
	}
	byName := make(map[string]ScenarioResult)
	for _, r := range rep.Results {
		byName[r.Scenario.Name] = r
	}
	if r := byName["point-conf"]; r.Measured.Requests == 0 || !r.Pass {
		t.Errorf("point-conf: %+v (reasons %v)", r.Measured, r.Reasons)
	}
	if r := byName["adaptive-skew"]; !r.Pass ||
		r.Measured.AdaptiveAccesses > r.Measured.StaticAccesses {
		t.Errorf("adaptive-skew: adaptive %d vs static %d (reasons %v)",
			r.Measured.AdaptiveAccesses, r.Measured.StaticAccesses, r.Reasons)
	}
	if r := byName["storm-ingest"]; r.Measured.Requests == 0 || r.Measured.Errors > 0 {
		t.Errorf("storm-ingest: %+v", r.Measured)
	}
	if _, ok := rep.ServerDeltas["node0"]; !ok {
		t.Error("report lacks node0 server deltas")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snapshot Report
	if err := json.Unmarshal(buf.Bytes(), &snapshot); err != nil {
		t.Fatalf("the JSON artifact does not decode back into a Report: %v", err)
	}
	found := false
	for _, r := range snapshot.Results {
		if r.Scenario.Name == "adaptive-skew" {
			found = true
			if want := byName["adaptive-skew"].Measured; r.Measured.AdaptiveAccesses != want.AdaptiveAccesses ||
				r.Measured.StaticAccesses != want.StaticAccesses || !r.Pass {
				t.Errorf("snapshot records adaptive-skew as %+v (pass=%v), the run measured %+v",
					r.Measured, r.Pass, want)
			}
		}
	}
	if !found {
		t.Error("snapshot lacks adaptive-skew")
	}
	if _, ok := snapshot.ServerDeltas["node0"]; !ok || snapshot.Suite != rep.Suite {
		t.Errorf("snapshot of suite %q lacks node0's server deltas", snapshot.Suite)
	}
	if rep.Markdown() == "" || rep.Text() == "" {
		t.Error("empty rendered report")
	}
}

// TestGroundTruthResolution pins the oracle path: FromGroundTruth fills
// count and hash from the reference system before the run.
func TestGroundTruthResolution(t *testing.T) {
	ctx := context.Background()
	cl, err := StartDefaultCluster(ctx, DefaultClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sc := Scenario{Name: "p", Kind: KindQuery, Query: "q(C, Y) :- conf(p1, C, Y)",
		Expect: Expect{FromGroundTruth: true}}
	if err := resolveGroundTruth(ctx, cl.Ref, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Expect.Answers == nil || *sc.Expect.Answers != 2 {
		t.Fatalf("expected 2 ground-truth answers, got %+v", sc.Expect.Answers)
	}
	if len(sc.Expect.AnswerHash) != 16 {
		t.Fatalf("bad hash %q", sc.Expect.AnswerHash)
	}
}
