package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", []float64{10, 10.1, 9.9, 10}, []float64{10, 10.05, 9.95, 10.1}, "lower", 0.1, "ok"},
		{"within bound", []float64{10, 10.1, 9.9}, []float64{10.5, 10.6, 10.4}, "lower", 0.1, "ok"},
		{"slower", []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "lower", 0.1, "worse"},
		{"noisy", []float64{10, 14, 7, 12}, []float64{10, 13, 8, 11}, "lower", 0.1, "unresolved"},
		{"noisy but every run faster", []float64{20, 28, 14}, []float64{10, 13, 8}, "lower", 0.1, "ok"},
		{"throughput dropped", []float64{100, 101, 99}, []float64{80, 81, 79}, "higher", 0.1, "worse"},
		{"throughput rose", []float64{100, 101, 99}, []float64{120, 121, 119}, "higher", 0.1, "ok"},
	} {
		if got := judge(c.a, c.b, c.better, c.bound).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// writeRuns writes a results file of runs whose batch-2k latency_p50_ms
// takes the given values.
func writeRuns(t *testing.T, path string, p50 ...float64) {
	t.Helper()
	for _, v := range p50 {
		rec := &runRecord{Workloads: map[string]*workloadRecord{
			"batch-2k": {Metrics: map[string]metric{"latency_p50_ms": {Value: v, Unit: "ms"}}},
		}}
		if err := appendRun(path, rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareReadsBoundsAndPrintsOneRowPerWorkloadMetric(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads": [{"name": "batch-2k", "why": "w"}],
		"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, same, slow := filepath.Join(dir, "a.json"), filepath.Join(dir, "same.json"), filepath.Join(dir, "slow.json")
	writeRuns(t, a, 30, 30.3, 29.8)
	writeRuns(t, same, 30.1, 29.9, 30.2)
	writeRuns(t, slow, 36, 36.2, 35.9)
	var out, errs bytes.Buffer
	if code := runCompare(spec, a, same, &out, &errs); code != 0 {
		t.Errorf("same medians: exit %d\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), "batch-2k") || !strings.Contains(out.String(), " ok") {
		t.Errorf("no ok row for batch-2k:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(spec, a, slow, &out, &errs); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("20%% slower: exit %d\n%s", code, out.String())
	}
	short := filepath.Join(dir, "short.json")
	writeRuns(t, short, 30, 31)
	if code := runCompare(spec, a, short, &out, &errs); code != 2 {
		t.Errorf("two runs accepted: exit %d", code)
	}
}
