package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if s.n != 3 || s.Min() != 1 || s.Max() != 3 || s.Avg() != 2 || s.sum != 6 {
		t.Errorf("series: n=%d min=%v max=%v avg=%v sum=%v", s.n, s.Min(), s.Max(), s.Avg(), s.sum)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Avg() != 0 || s.Min() != 0 || s.Max() != 0 || s.n != 0 {
		t.Error("empty series must be all zeros")
	}
}

func TestSeriesNegativeValues(t *testing.T) {
	var s Series
	s.Add(-5)
	s.Add(-1)
	if s.Min() != -5 || s.Max() != -1 {
		t.Errorf("min=%v max=%v", s.Min(), s.Max())
	}
}

// Property: min <= avg <= max for any non-empty series.
func TestSeriesInvariantProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var s Series
		for _, v := range vals {
			if v != v { // skip NaN
				continue
			}
			s.Add(math.Mod(v, 1e12)) // clamp so the sum cannot overflow
		}
		if s.n == 0 {
			return true
		}
		return s.Min() <= s.Avg()+1e-9 && s.Avg() <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	var tb Table
	tb.Row("alpha", "1")
	tb.Row("b", "22")
	tb.Header("name", "value")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header not first: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("no separator: %q", lines[1])
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22") {
		t.Errorf("missing cells:\n%s", out)
	}
}

func TestTableEmpty(t *testing.T) {
	var tb Table
	if tb.String() != "" {
		t.Error("empty table should render empty")
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.8102); got != "81.02%" {
		t.Errorf("Pct = %s", got)
	}
}
