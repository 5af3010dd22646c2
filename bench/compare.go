package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is BENCHMARK.json: the command, workloads and metrics, with
// each end-to-end metric's regression bound.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// minRuns is the fewest runs per results file -compare accepts.
const minRuns = 3

// row is one workload × metric comparison.
type row struct {
	medA, iqrA, medB, iqrB float64
	delta                  float64 // change as a share of medA, positive = worse
	spread                 float64 // the larger relative IQR of the two sides
	verdict                string  // ok, worse or unresolved
}

// judge compares runs of the parent (a) with runs of the change (b). A
// metric is worse when the median moved the wrong way by more than bound;
// unresolved when either side's run-to-run spread exceeds the bound, so a
// move of that size could be noise — unless every run of b beats every run
// of a.
func judge(a, b []float64, better string, bound float64) row {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	r := row{medA: ma, iqrA: q3a - q1a, medB: mb, iqrB: q3b - q1b}
	rel := func(x, base float64) float64 {
		if base == 0 {
			if x == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return x / math.Abs(base)
	}
	r.delta = rel(mb-ma, ma)
	if better == "higher" {
		r.delta = -r.delta
	}
	r.spread = math.Max(rel(r.iqrA, ma), rel(r.iqrB, mb))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		r.verdict = "ok"
	case r.spread > bound:
		r.verdict = "unresolved"
	case r.delta > bound:
		r.verdict = "worse"
	default:
		r.verdict = "ok"
	}
	return r
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &f, nil
}

// values collects one workload metric across a file's valid runs.
func values(f *resultsFile, wl, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if w := r.Workloads[wl]; w != nil && w.Invalid == "" {
			if m, ok := w.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// runCompare prints one row per workload × end-to-end metric and exits
// non-zero when any row is worse or unresolved.
func runCompare(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	bad := 0
	fmt.Fprintf(stdout, "%-15s %-16s %12s %10s %12s %10s %8s %8s  %s\n",
		"workload", "metric", "A median", "A IQR", "B median", "B IQR", "delta", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			if len(va) < minRuns || len(vb) < minRuns {
				fmt.Fprintf(stderr, "bench: %s %s: %d and %d runs, need %d on each side\n", w.Name, m.Name, len(va), len(vb), minRuns)
				return 2
			}
			r := judge(va, vb, m.Better, m.Bound)
			if r.verdict != "ok" {
				bad++
			}
			fmt.Fprintf(stdout, "%-15s %-16s %12.5g %10.3g %12.5g %10.3g %+7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, r.medA, r.iqrA, r.medB, r.iqrB, 100*r.delta, 100*m.Bound, r.verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d rows worse or unresolved\n", bad)
		return 1
	}
	return 0
}
