package obs

import (
	"testing"
	"time"
)

// TestProbeMetricsRecord: a relation's handles resolve once and for all; a
// round trip that delivered moves the three counters and both histograms, one
// that failed only the histograms — it was paid for, no access was answered;
// and the exposition renders what the handles recorded.
func TestProbeMetricsRecord(t *testing.T) {
	m := NewProbeMetrics(NewRegistry())
	r := m.For("r")
	if m.For("r") != r {
		t.Fatal("the relation's handles were resolved twice")
	}
	if m.For("s") == r || (*ProbeMetrics)(nil).For("r") != nil {
		t.Fatal("handles are per relation, and a nil ProbeMetrics has none")
	}
	r.Record(6, time.Millisecond, 12, true)
	r.Record(4, time.Millisecond, 0, false)

	for rel, want := range map[string][3]int64{"r": {6, 1, 12}, "s": {}} {
		p := m.For(rel)
		if got := [3]int64{p.accesses.Value(), p.roundTrips.Value(), p.tuples.Value()}; got != want {
			t.Errorf("%s counts (accesses, round trips, tuples) %v, want %v", rel, got, want)
		}
	}
	if got := m.accesses.With("r").Value(); got != 6 {
		t.Errorf("the exposition's series holds %d accesses, the handle recorded 6", got)
	}
	if d, b := observations(m.duration), observations(m.batchSize); d != 2 || b != 2 {
		t.Errorf("histograms observed %d durations and %d batch sizes, want both round trips", d, b)
	}
}
