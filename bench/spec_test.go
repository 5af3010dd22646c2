package main

import (
	"path/filepath"
	"testing"
)

// BENCHMARK.json and the harness must name the same workloads and metrics:
// the harness prints exactly the metrics the file lists.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloadTable))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadTable[i].name || w.Why != workloadTable[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloadTable[i].name, workloadTable[i].why)
		}
	}
	if len(spec.EndToEnd) != len(e2eSpecs) {
		t.Fatalf("%d end-to-end metrics listed, %d measured", len(spec.EndToEnd), len(e2eSpecs))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		s := e2eSpecs[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end-to-end %d: %+v, harness %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, maxBound)
		}
	}
	if len(spec.PerLayer) != len(layerSpecs) {
		t.Fatalf("%d per-layer metrics listed, %d measured", len(spec.PerLayer), len(layerSpecs))
	}
	for i, m := range spec.PerLayer {
		s := layerSpecs[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per-layer %d: %+v, harness %+v", i, m, s)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}
