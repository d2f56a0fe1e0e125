package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Scrape is one parsed Prometheus text exposition — the read side of
// WriteText. A load harness scrapes a target's /metrics before and after a
// run and diffs the two scrapes, so the client-observed numbers and the
// server's own accounting land in one report.
type Scrape struct {
	// Samples maps the full series identity — `name{label="value",…}`
	// exactly as exposed — to its sample value.
	Samples map[string]float64
	// Help and Types map family names to their # HELP / # TYPE metadata.
	Help  map[string]string
	Types map[string]string
}

// ParseExposition parses the Prometheus text exposition format (the subset
// WriteText emits and any Prometheus endpoint serves): # HELP and # TYPE
// metadata lines, other comments ignored, and `name{labels} value` samples.
// Unparseable sample values are an error; timestamps after the value are
// tolerated and dropped.
func ParseExposition(r io.Reader) (*Scrape, error) {
	s := &Scrape{
		Samples: make(map[string]float64),
		Help:    make(map[string]string),
		Types:   make(map[string]string),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(line[len("# HELP "):], " ")
			s.Help[name] = help
			continue
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(line[len("# TYPE "):], " ")
			s.Types[name] = typ
			continue
		case strings.HasPrefix(line, "#"):
			continue
		}
		var series, rest string
		if open := strings.IndexByte(line, '{'); open >= 0 {
			// The label block ends at the last '}': label values are quoted
			// and escape '"' and '\', so no unquoted '}' precedes it.
			end := strings.LastIndexByte(line, '}')
			if end < open {
				return nil, fmt.Errorf("obs: malformed sample line %q", line)
			}
			series, rest = line[:end+1], strings.TrimSpace(line[end+1:])
		} else {
			var ok bool
			series, rest, ok = strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("obs: malformed sample line %q", line)
			}
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("obs: sample line %q has no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: sample line %q: %w", line, err)
		}
		s.Samples[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// seriesName strips the label block off a series identity.
func seriesName(series string) string {
	name, _, _ := strings.Cut(series, "{")
	return name
}

// Sum adds up every sample of the named family across its label
// combinations — `sum(name)` over one scrape. Zero when absent.
func (s *Scrape) Sum(name string) float64 {
	var sum float64
	for series, v := range s.Samples {
		if seriesName(series) == name {
			sum += v
		}
	}
	return sum
}

// Value returns one exact series' sample, or 0 when absent.
func (s *Scrape) Value(series string) float64 { return s.Samples[series] }

// SumDelta is Sum(name) minus the earlier scrape's Sum(name).
func (s *Scrape) SumDelta(before *Scrape, name string) float64 {
	var prev float64
	if before != nil {
		prev = before.Sum(name)
	}
	return s.Sum(name) - prev
}
