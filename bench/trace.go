package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spanNode is one recorded interval of one operation, in microseconds since
// the traced phase began. All spans of an operation hang off its client
// span; the tree is kept in memory and written out when the run ends.
type spanNode struct {
	Name     string      `json:"name"`
	StartUS  float64     `json:"start_us"`
	DurUS    float64     `json:"dur_us"`
	SelfUS   float64     `json:"self_us"`
	Children []*spanNode `json:"children,omitempty"`
}

func (s *spanNode) end() float64 { return s.StartUS + s.DurUS }

// child appends and returns a child span.
func (s *spanNode) child(name string, startUS, durUS float64) *spanNode {
	c := &spanNode{Name: name, StartUS: startUS, DurUS: durUS}
	s.Children = append(s.Children, c)
	return c
}

// self is the span's duration minus the part of its interval its children
// cover; overlapping children (parallel probes) are counted once.
func (s *spanNode) self() float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		a, b := c.StartUS, c.end()
		if a < s.StartUS {
			a = s.StartUS
		}
		if b > s.end() {
			b = s.end()
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := 0.0, s.StartUS
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		if v.a > reach {
			reach = v.a
		}
		covered += v.b - reach
		reach = v.b
	}
	return s.DurUS - covered
}

// walk visits the span and every descendant, parents first.
func (s *spanNode) walk(f func(*spanNode)) {
	f(s)
	for _, c := range s.Children {
		c.walk(f)
	}
}

// fillSelf stores every span's self time, for the written trace.
func (s *spanNode) fillSelf() {
	s.walk(func(n *spanNode) { n.SelfUS = n.self() })
}

// spanJSON is the server's own span tree as the done line of a ?trace=1
// query carries it (milliseconds relative to the root's start).
type spanJSON struct {
	Name     string     `json:"name"`
	StartMS  float64    `json:"start_ms"`
	DurMS    float64    `json:"dur_ms"`
	Children []spanJSON `json:"children,omitempty"`
}

// graft hangs the server's tree under parent. The server does not say when
// its root began on the bench's clock, only how long it ran; the root ends
// just before the done line is written, so it is anchored with its end at
// the parent's end, which leaves planning (before the root) and the final
// encode in the parent's self time where they belong.
func graft(parent *spanNode, root spanJSON) {
	origin := parent.end() - root.DurMS*1000
	if origin < parent.StartUS {
		origin = parent.StartUS
	}
	var add func(p *spanNode, j spanJSON)
	add = func(p *spanNode, j spanJSON) {
		n := p.child(j.Name, origin+j.StartMS*1000, j.DurMS*1000)
		for _, c := range j.Children {
			add(n, c)
		}
	}
	add(parent, root)
}

// opTrace is the span tree of one operation; Op is the identifier its
// spans share (the client sends it as X-Bench-Op).
type opTrace struct {
	Op   int       `json:"op"`
	Kind string    `json:"kind"`
	Root *spanNode `json:"root"`
}

// maxTraceOps bounds the written file, not the measurement: every traced
// operation feeds the per-layer metrics, the first maxTraceOps are kept.
const maxTraceOps = 4000

// traceSummary folds traced operations into per-span-name totals.
type traceSummary struct {
	clientUS float64            // summed client span durations
	selfUS   map[string]float64 // summed self time by span name
	durUS    map[string]float64 // summed duration by span name
	count    map[string]int     // spans by name
}

func summarize(ops []opTrace) traceSummary {
	s := traceSummary{
		selfUS: map[string]float64{}, durUS: map[string]float64{},
		count: map[string]int{},
	}
	for _, op := range ops {
		s.clientUS += op.Root.DurUS
		op.Root.walk(func(n *spanNode) {
			s.selfUS[n.Name] += n.self()
			s.durUS[n.Name] += n.DurUS
			s.count[n.Name]++
		})
	}
	return s
}

// selfSum is the self time of every span of every operation.
func (s traceSummary) selfSum() float64 {
	t := 0.0
	for _, v := range s.selfUS {
		t += v
	}
	return t
}

// writeTrace writes the kept span trees as one JSON document.
func writeTrace(dir, workload string, ops []opTrace) (string, error) {
	if len(ops) > maxTraceOps {
		ops = ops[:maxTraceOps]
	}
	for _, op := range ops {
		op.Root.fillSelf()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string    `json:"workload"`
		Unit     string    `json:"unit"`
		Ops      []opTrace `json:"ops"`
	}{workload, "us since the traced phase began", ops})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
