// Package stats aggregates experiment measurements into the min/max/avg
// summaries the paper reports (Fig. 10) and renders simple text tables.
package stats

import (
	"fmt"
	"strings"
)

// Series accumulates float64 observations.
type Series struct {
	n          int
	sum        float64
	min, max   float64
	hasExtrema bool
}

// Add records one observation.
func (s *Series) Add(v float64) {
	s.n++
	s.sum += v
	if !s.hasExtrema || v < s.min {
		s.min = v
	}
	if !s.hasExtrema || v > s.max {
		s.max = v
	}
	s.hasExtrema = true
}

// Min returns the smallest observation (0 when empty).
func (s *Series) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Series) Max() float64 { return s.max }

// Avg returns the mean observation (0 when empty).
func (s *Series) Avg() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Table renders an aligned text table; the first row is the header.
type Table struct {
	rows [][]string
}

// Header sets the header cells.
func (t *Table) Header(cells ...string) { t.rows = append([][]string{cells}, t.rows...) }

// Row appends a data row.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table with column alignment.
func (t *Table) String() string {
	if len(t.rows) == 0 {
		return ""
	}
	cols := 0
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, r := range t.rows {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
		if ri == 0 {
			for i := 0; i < cols; i++ {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", width[i]))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Pct formats a ratio as a percentage with two decimals, e.g. "81.02%".
func Pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
