package obs

import (
	"testing"

	"toorjah/internal/source"
	"toorjah/internal/source/sourcetest"
)

// TestProbeContract runs source.Wrapper's contract test over the two
// instrumentation wrappers, stacked as the executors stack them, and checks
// that what they recorded is what went through them.
func TestProbeContract(t *testing.T) {
	f := sourcetest.New(t)
	o := &ExecObs{Probe: NewProbeMetrics(NewRegistry())}
	ctr := source.NewCounter(f.Source, false)
	w := o.WrapDemand(o.WrapProbe(ctr))
	f.Contract(t, w, func() int { return ctr.Stats().Accesses })

	st := ctr.Stats()
	if st.Accesses != 12 || st.Tuples != 24 {
		t.Fatalf("two batches of six counted as %+v", st)
	}
	if got := o.Probe.accesses.With("r").Value(); got != int64(st.Accesses) {
		t.Errorf("probe metrics saw %d accesses, the counter %d", got, st.Accesses)
	}
	if got := o.Probe.tuples.With("r").Value(); got != int64(st.Tuples) {
		t.Errorf("probe metrics saw %d tuples, the counter %d", got, st.Tuples)
	}
	// Demand is counted on the way in, before anyone can refuse the batch.
	if got := o.Demanded(); got < st.Accesses {
		t.Errorf("demanded %d accesses, fewer than the %d probed", got, st.Accesses)
	}
}
