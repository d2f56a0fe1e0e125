package obs

import (
	"strings"
	"testing"
)

func TestParseExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("toorjah_test_hits_total", "hits", "rel")
	c.With("rev").Add(3)
	c.With("pub, \"quoted\"\nname").Add(4)
	r.Gauge("toorjah_test_temp", "temperature").Set(-7)
	h := r.Histogram("toorjah_test_sizes", "sizes", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseExposition: %v\nexposition:\n%s", err, b.String())
	}

	if got := sc.Value(`toorjah_test_hits_total{rel="rev"}`); got != 3 {
		t.Errorf("rev hits = %v, want 3", got)
	}
	if got := sc.Sum("toorjah_test_hits_total"); got != 7 {
		t.Errorf("total hits = %v, want 7", got)
	}
	if got := sc.Sum("toorjah_test_temp"); got != -7 {
		t.Errorf("gauge = %v, want -7", got)
	}
	if got := sc.Sum("toorjah_test_sizes_count"); got != 3 {
		t.Errorf("histogram count = %v, want 3", got)
	}
	if sc.Types["toorjah_test_hits_total"] != "counter" {
		t.Errorf("type = %q, want counter", sc.Types["toorjah_test_hits_total"])
	}
	if sc.Help["toorjah_test_temp"] != "temperature" {
		t.Errorf("help = %q, want temperature", sc.Help["toorjah_test_temp"])
	}

	// The escaped label survives the round trip.
	if got := sc.Value(`toorjah_test_hits_total{rel="pub, \"quoted\"\nname"}`); got != 4 {
		t.Errorf("escaped label value did not round-trip: %v", sc.Samples)
	}
}

func TestScrapeDeltaFrom(t *testing.T) {
	parse := func(text string) *Scrape {
		t.Helper()
		sc, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	before := parse("toorjah_a_total 10\ntoorjah_b_total{x=\"1\"} 2\n")
	after := parse("toorjah_a_total 15\ntoorjah_b_total{x=\"1\"} 2\ntoorjah_c_total 4\n")

	if got := after.SumDelta(before, "toorjah_a_total"); got != 5 {
		t.Errorf("SumDelta = %v, want 5", got)
	}
	if got := after.SumDelta(nil, "toorjah_c_total"); got != 4 {
		t.Errorf("SumDelta(nil) = %v, want 4", got)
	}
}

func TestParseExpositionMalformed(t *testing.T) {
	for _, bad := range []string{
		"toorjah_x_total notanumber",
		"toorjah_x_total",
		"}malformed{ 1",
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseExposition(%q): want error", bad)
		}
	}
}
