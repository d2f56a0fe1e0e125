// Package load is the production workload harness behind cmd/loadgen: it
// replays configurable scenario mixes — point CQs, fat UCQs, ingest
// storms, federated probes, injected peer outages — from N concurrent
// clients against a live toorjahd cluster (typically the in-process
// two-node cluster of StartDefaultCluster, built on internal/service), and
// scores every scenario against declared expected outcomes, so a load run
// is simultaneously a correctness run.
//
// The harness records per-scenario latency histograms (p50/p99/p999 via
// the same bucket estimator the server's /metrics uses), throughput and
// error budgets; scrapes each node's /metrics before and after the run to
// embed the server-side deltas (cache savings, probe round trips, breaker
// opens, ingest rows) next to the client-observed numbers; and emits the
// whole report as text, GFM or JSON.
package load

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
)

// Kind classifies what one scenario does per request.
type Kind string

const (
	// KindQuery issues the scenario's CQ or UCQ against /query and checks
	// the streamed answers against the expectation.
	KindQuery Kind = "query"
	// KindIngest posts a batch of fresh rows to /ingest (an ingest storm
	// when weighted high). Rows are unique per request, so every batch
	// advances the relation's epoch.
	KindIngest Kind = "ingest"
	// KindFailure injects a peer outage: the target node answers 503 for
	// OutageMS, then recovers. The scenario itself measures the toggle; the
	// damage shows up in other scenarios' error budgets and in the server's
	// breaker metrics.
	KindFailure Kind = "failure"
	// KindCompare runs once after the timed phase: it executes the query
	// against two fresh in-process systems over the cluster's skewed
	// dataset — adaptive ordering on vs off — and scores the access counts
	// (Expect.AdaptiveNoWorse).
	KindCompare Kind = "compare"
	// KindCrash runs once after the timed phase: it boots a real durable
	// child process (RunCrash), storms it with unique insert batches,
	// SIGKILLs it at a random point — optionally mid-write, via a WAL
	// failpoint — restarts it from the same data directory, and scores
	// the recovered state against a never-crashed twin fed the surviving
	// batches. Every acknowledged batch must survive whole, and answers,
	// row counts and epochs must match the twin's.
	KindCrash Kind = "crash"
)

// Expect declares a scenario's expected outcome; the run scores observed
// behaviour against it. Zero value: nothing checked but errors (budget 0).
type Expect struct {
	// Answers, when non-nil, is the exact answer count every request must
	// observe.
	Answers *int `json:"answers,omitempty"`
	// AnswerHash, when set, is the FNV-64a hex digest (HashAnswers) of the
	// sorted answer set every request must observe.
	AnswerHash string `json:"answer_hash,omitempty"`
	// FromGroundTruth fills Answers and AnswerHash before the run by
	// executing the query once against the reference system that holds
	// every relation locally — the calibration idiom: the ground truth is
	// computed, not hand-maintained.
	FromGroundTruth bool `json:"from_ground_truth,omitempty"`
	// MaxTruncatedFrac is the highest tolerated fraction of truncated
	// responses (0 = none tolerated unless the scenario sets a limit).
	MaxTruncatedFrac float64 `json:"max_truncated_frac,omitempty"`
	// ErrorBudget is the highest tolerated fraction of failed requests.
	ErrorBudget float64 `json:"error_budget,omitempty"`
	// AdaptiveNoWorse, for KindCompare, requires the adaptive execution to
	// perform no more accesses than the static one.
	AdaptiveNoWorse bool `json:"adaptive_no_worse,omitempty"`
}

// Scenario is one replayable workload element of a suite.
type Scenario struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Query is the CQ (one line) or UCQ (one disjunct per line) of
	// KindQuery and KindCompare.
	Query string `json:"query,omitempty"`
	// Limit caps the answers per request (0 = unlimited).
	Limit int `json:"limit,omitempty"`
	// Relation and Rows shape a KindIngest batch.
	Relation string `json:"relation,omitempty"`
	Rows     int    `json:"rows,omitempty"`
	// Node indexes the cluster node the scenario targets (default 0; for
	// KindFailure, the node taken down).
	Node int `json:"node,omitempty"`
	// Weight is the scenario's relative frequency in the mix; 0 keeps it
	// out of the timed phase (KindCompare scenarios run once afterwards).
	Weight int `json:"weight,omitempty"`
	// OutageMS is how long a KindFailure outage lasts, in milliseconds.
	OutageMS int `json:"outage_ms,omitempty"`
	// Batches, Fsync and Failpoint shape a KindCrash round: how many
	// insert batches the storm sends at most, the victim's WAL flush
	// policy (always, interval, never), and an optional failpoint spec
	// (e.g. "crash-after-bytes=2500") armed in the victim's environment
	// so it dies mid-write instead of at the harness's random kill point.
	Batches   int    `json:"batches,omitempty"`
	Fsync     string `json:"fsync,omitempty"`
	Failpoint string `json:"failpoint,omitempty"`

	Expect Expect `json:"expect"`
}

// Suite is a named set of scenarios.
type Suite struct {
	Name      string     `json:"name"`
	Scenarios []Scenario `json:"scenarios"`
}

// ParseSuite decodes a scenario file: {"name": "...", "scenarios": [...]}.
func ParseSuite(r io.Reader) (*Suite, error) {
	var s Suite
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("load: bad suite: %w", err)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("load: suite has no name")
	}
	if len(s.Scenarios) == 0 {
		return nil, fmt.Errorf("load: suite %q has no scenarios", s.Name)
	}
	for i, sc := range s.Scenarios {
		if err := validateScenario(sc); err != nil {
			return nil, fmt.Errorf("load: scenario %d (%s): %w", i, sc.Name, err)
		}
	}
	return &s, nil
}

func validateScenario(sc Scenario) error {
	if sc.Name == "" {
		return fmt.Errorf("missing name")
	}
	switch sc.Kind {
	case KindQuery, KindCompare:
		if strings.TrimSpace(sc.Query) == "" {
			return fmt.Errorf("kind %s needs a query", sc.Kind)
		}
	case KindIngest:
		if sc.Relation == "" || sc.Rows <= 0 {
			return fmt.Errorf("kind ingest needs relation and rows")
		}
	case KindFailure:
		if sc.OutageMS <= 0 {
			return fmt.Errorf("kind failure needs outage_ms")
		}
	case KindCrash:
		if sc.Batches <= 0 {
			return fmt.Errorf("kind crash needs batches")
		}
	default:
		return fmt.Errorf("unknown kind %q", sc.Kind)
	}
	return nil
}

// HashAnswers digests an answer set order-independently: rows are joined
// on unit separators, sorted, and FNV-64a hashed — the same digest whether
// computed from a streamed NDJSON response or a Result's tuples, so client
// and ground truth compare by 16 hex characters instead of full answer
// sets.
func HashAnswers(rows [][]string) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\x1e'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Measured is what one scenario's timed phase actually observed — the
// input of Evaluate, separated from the runner so scoring is a pure,
// table-testable function.
type Measured struct {
	Requests   int
	Errors     int
	Truncated  int
	Mismatches int // responses whose answers contradicted the expectation
	// AdaptiveAccesses / StaticAccesses carry a KindCompare measurement.
	AdaptiveAccesses int
	StaticAccesses   int
	// AckedBatches / SurvivedBatches / Violations carry a KindCrash
	// measurement: batches acknowledged before the kill, batches fully
	// present after the restart, and every durability-contract violation
	// the round found (acked batch lost, partial batch, answer / epoch /
	// row-count divergence from the never-crashed twin).
	AckedBatches    int
	SurvivedBatches int
	Violations      []string
}

// Evaluate scores a measurement against an expectation, returning PASS or
// FAIL with one reason per violated predicate. A scenario that never ran
// fails: a scored scenario the mix starved proves nothing.
func Evaluate(sc Scenario, m Measured) (pass bool, reasons []string) {
	if m.Requests == 0 && sc.Kind != KindFailure {
		return false, []string{"no requests completed"}
	}
	n := float64(m.Requests)
	if n > 0 {
		if frac := float64(m.Errors) / n; frac > sc.Expect.ErrorBudget {
			reasons = append(reasons, fmt.Sprintf("error rate %.3f exceeds budget %.3f",
				frac, sc.Expect.ErrorBudget))
		}
		if frac := float64(m.Truncated) / n; frac > sc.Expect.MaxTruncatedFrac {
			reasons = append(reasons, fmt.Sprintf("truncated rate %.3f exceeds %.3f",
				frac, sc.Expect.MaxTruncatedFrac))
		}
	}
	if m.Mismatches > 0 {
		reasons = append(reasons, fmt.Sprintf("%d responses contradicted the expected answers", m.Mismatches))
	}
	reasons = append(reasons, m.Violations...)
	if sc.Expect.AdaptiveNoWorse && m.AdaptiveAccesses > m.StaticAccesses {
		reasons = append(reasons, fmt.Sprintf("adaptive ordering used %d accesses, static %d",
			m.AdaptiveAccesses, m.StaticAccesses))
	}
	return len(reasons) == 0, reasons
}
