package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// quartiles returns the first, second and third quartile of sorted values
// exactly as Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is how the spread of a metric across runs is judged: the
// distance between the first and the third, as a share of the median.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n < 2 {
		if n == 1 {
			return sorted[0], sorted[0], sorted[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after the clamp, as CPython does: the ends extrapolate
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runRecord is the repeatability record of one metric on one workload.
type runRecord struct {
	Unit   string    `json:"unit"`
	Bound  float64   `json:"bound,omitempty"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3−Q1)/Median; it must stay within Bound for the metric
	// to resolve a regression of that size.
	Spread float64 `json:"spread"`
}

// baselineFile is what --baseline writes.
type baselineFile struct {
	Go        string                          `json:"go"`
	NProc     int                             `json:"nproc"`
	Seconds   float64                         `json:"seconds"`
	Seeds     []int64                         `json:"seeds"`
	Fsync     string                          `json:"fsync"`
	EndToEnd  map[string]map[string]runRecord `json:"end_to_end"`
	PerLayer  map[string]map[string]float64   `json:"per_layer"`
	Attempted map[string]int                  `json:"attempted"`
	Failed    map[string]int                  `json:"failed"`
}

// declaredBounds reads the regress bounds from BENCHMARK.json in the
// working directory, when there is one.
func declaredBounds() map[string]float64 {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(raw, &decl) != nil {
		return nil
	}
	out := make(map[string]float64)
	for _, m := range decl.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// child runs one workload in a process of its own (a re-exec of this
// binary) and returns its result line. With echo set the child's metric
// table passes through to standard output.
func child(self string, w workload, cfg runConfig, seed int64, trace string, echo bool) (resultLine, error) {
	args := []string{
		"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64),
		"--trace", trace, "--outdir", cfg.outDir,
	}
	if cfg.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(out.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	if echo {
		fmt.Println(strings.TrimSuffix(text, last))
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if runErr != nil {
			return line, runErr
		}
		return line, fmt.Errorf("no result line: %w", err)
	}
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return line, runErr
	}
	return line, nil
}

// runAll runs every workload — runs times untraced on consecutive seeds,
// then once traced — each run in a child process, and prints per workload
// and end-to-end metric the median, the quartiles and the spread. It returns
// the exit code: non-zero when any run failed a check or could not run.
func runAll(cfg runConfig, runs int, baselinePath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	bounds := declaredBounds()
	base := baselineFile{
		Go: runtime.Version(), NProc: runtime.NumCPU(), Seconds: cfg.seconds, Fsync: fsyncPolicy,
		EndToEnd:  map[string]map[string]runRecord{},
		PerLayer:  map[string]map[string]float64{},
		Attempted: map[string]int{}, Failed: map[string]int{},
	}
	for i := 0; i < runs; i++ {
		base.Seeds = append(base.Seeds, cfg.seed+int64(i))
	}
	code := 0
	for _, w := range workloads {
		values := map[string][]float64{}
		for _, seed := range base.Seeds {
			line, err := child(self, w, cfg, seed, "0", runs == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
				return 1
			}
			base.Attempted[w.name] += line.Attempted
			base.Failed[w.name] += line.Failed
			if !line.Correct {
				code = 1
			}
			for name, mv := range line.Metrics {
				values[name] = append(values[name], mv.Value)
			}
		}
		traced, err := child(self, w, cfg, cfg.seed, "1", runs == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s traced: %v\n", w.name, err)
			return 1
		}
		if !traced.Correct {
			code = 1
		}
		base.PerLayer[w.name] = map[string]float64{}
		for name, mv := range traced.Metrics {
			base.PerLayer[w.name][name] = mv.Value
		}

		base.EndToEnd[w.name] = map[string]runRecord{}
		fmt.Printf("%-12s %-22s %14s %14s %14s %8s %6s\n", w.name, "", "median", "q1", "q3", "spread", "bound")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(sortedCopy(values[d.Name]))
			rec := runRecord{Unit: d.Unit, Bound: bounds[d.Name], Values: values[d.Name],
				Median: q2, Q1: q1, Q3: q3, Spread: ratio(q3-q1, q2)}
			base.EndToEnd[w.name][d.Name] = rec
			fmt.Printf("%-12s %-22s %14.6g %14.6g %14.6g %8.4f %6.2f %s\n",
				"", d.Name, rec.Median, rec.Q1, rec.Q3, rec.Spread, rec.Bound, d.Unit)
		}
		fmt.Printf("%-12s attempted %d, failed %d\n", "", base.Attempted[w.name], base.Failed[w.name])
	}
	if baselinePath != "" {
		raw, err := json.MarshalIndent(base, "", "  ")
		if err == nil {
			err = os.WriteFile(baselinePath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: baseline: %v\n", err)
			return 1
		}
	}
	return code
}
