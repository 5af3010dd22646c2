package main

// Self-test for the -compare regression gate: the gate must fail on a
// synthetic 30% speedup regression and on any recall drop, and must pass
// when every gated metric holds within tolerance — this is what keeps the
// CI bench-trend step honest about its own trip-wire.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compareBaseline mirrors the shape of a real BENCH_cupid.json closely
// enough to exercise maps, nested objects, and arrays of cells.
const compareBaseline = `{
  "generated_unix": 1700000000,
  "batch": {"corpus": 200, "speedup_vs_naive": 12.0, "recall_at_10": 1.0},
  "planner": {
    "sweeps": [
      {"corpus": 2000, "planned_speedup": 3.0, "recall_at_10": 1.0},
      {"corpus": 20000, "planned_speedup": 6.0, "recall_at_10": 1.0}
    ]
  },
  "corpus": {"corpus": 10000, "family_speedup": 2.0, "family_recall_at_10": 0.99}
}`

func parseJSON(t *testing.T, s string) any {
	t.Helper()
	v, err := parseCompareJSON([]byte(s))
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	return v
}

func TestCompareWithinToleranceHolds(t *testing.T) {
	// 20% speedup loss is within the 25% tolerance; recall held exactly.
	fresh := strings.NewReplacer(
		`"speedup_vs_naive": 12.0`, `"speedup_vs_naive": 9.7`,
		`"family_speedup": 2.0`, `"family_speedup": 1.7`,
	).Replace(compareBaseline)
	findings := compareReports(parseJSON(t, compareBaseline), parseJSON(t, fresh))
	if len(findings) != 0 {
		t.Fatalf("within-tolerance report flagged: %v", findings)
	}
}

func TestCompareFailsOnSpeedupRegression(t *testing.T) {
	// The synthetic 30% regression the CI self-test injects: 12.0 -> 8.4.
	fresh := strings.Replace(compareBaseline, `"speedup_vs_naive": 12.0`, `"speedup_vs_naive": 8.4`, 1)
	findings := compareReports(parseJSON(t, compareBaseline), parseJSON(t, fresh))
	if len(findings) != 1 {
		t.Fatalf("want exactly the injected regression, got %v", findings)
	}
	if f := findings[0]; f.kind != "speedup" || !strings.Contains(f.path, "speedup_vs_naive") {
		t.Fatalf("wrong finding for injected 30%% regression: %+v", f)
	}
}

func TestCompareFailsOnAnyRecallDrop(t *testing.T) {
	// A recall drop far smaller than the speedup tolerance still fails.
	fresh := strings.Replace(compareBaseline, `"family_recall_at_10": 0.99`, `"family_recall_at_10": 0.98`, 1)
	findings := compareReports(parseJSON(t, compareBaseline), parseJSON(t, fresh))
	if len(findings) != 1 || findings[0].kind != "recall" {
		t.Fatalf("want exactly one recall finding, got %v", findings)
	}
}

func TestCompareFailsOnDroppedGatedMetric(t *testing.T) {
	// Removing a gated array cell (an experiment silently dropped) fails.
	fresh := strings.Replace(compareBaseline,
		`,
      {"corpus": 20000, "planned_speedup": 6.0, "recall_at_10": 1.0}`, "", 1)
	findings := compareReports(parseJSON(t, compareBaseline), parseJSON(t, fresh))
	if len(findings) != 2 { // the cell's speedup and recall both vanish
		t.Fatalf("want 2 findings for the dropped cell, got %v", findings)
	}
}

// TestCompareReportsMissingExperiment: a fresh report without an
// experiment the baseline has (a run whose gate failed merges nothing)
// fails with each gated value reported as missing, naming the
// experiment, rather than as a drop to 0.
func TestCompareReportsMissingExperiment(t *testing.T) {
	fresh := strings.Replace(compareBaseline, `"planner": {
    "sweeps": [
      {"corpus": 2000, "planned_speedup": 3.0, "recall_at_10": 1.0},
      {"corpus": 20000, "planned_speedup": 6.0, "recall_at_10": 1.0}
    ]
  },`, "", 1)
	findings := compareReports(parseJSON(t, compareBaseline), parseJSON(t, fresh))
	if len(findings) != 4 {
		t.Fatalf("want 4 findings for the planner's two speedups and two recalls, got %v", findings)
	}
	for _, f := range findings {
		msg := f.String()
		if !f.missing || !strings.Contains(msg, "missing") || !strings.Contains(msg, `experiment "planner"`) || strings.Contains(msg, "0.0000") {
			t.Errorf("finding %q: want it reported missing, naming the planner experiment", msg)
		}
	}
	if err := runCompareReports(t, compareBaseline, fresh); err == nil || !strings.Contains(err.Error(), `experiment "planner"`) {
		t.Errorf("runCompare = %v, want a failure naming the missing planner experiment", err)
	}
}

// runCompareReports runs runCompare over a baseline and a fresh report
// written to a temporary directory.
func runCompareReports(t *testing.T, baseline, fresh string) error {
	t.Helper()
	dir := t.TempDir()
	base, fr := filepath.Join(dir, "baseline.json"), filepath.Join(dir, "fresh.json")
	if err := os.WriteFile(base, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fr, []byte(fresh), 0o644); err != nil {
		t.Fatal(err)
	}
	return runCompare(fr, base)
}

func TestCompareIgnoresUngatedAndNewMetrics(t *testing.T) {
	// Non-gated numbers may move freely; fresh-only metrics pass ungated.
	fresh := strings.NewReplacer(
		`"corpus": 10000`, `"corpus": 9000`,
		`"generated_unix": 1700000000`, `"generated_unix": 1800000000, "overload": {"goodput_speedup": 1.5}`,
	).Replace(compareBaseline)
	if findings := compareReports(parseJSON(t, compareBaseline), parseJSON(t, fresh)); len(findings) != 0 {
		t.Fatalf("ungated/new metrics flagged: %v", findings)
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "baseline.json")
	freshOK := filepath.Join(dir, "fresh-ok.json")
	freshBad := filepath.Join(dir, "fresh-bad.json")
	regressed := strings.Replace(compareBaseline, `"family_speedup": 2.0`, `"family_speedup": 1.4`, 1)
	for path, body := range map[string]string{base: compareBaseline, freshOK: compareBaseline, freshBad: regressed} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := runCompare(freshOK, base); err != nil {
		t.Fatalf("identical reports must pass: %v", err)
	}
	err := runCompare(freshBad, base)
	if err == nil || !strings.Contains(err.Error(), "family_speedup") {
		t.Fatalf("30%% family_speedup regression must fail naming the metric, got %v", err)
	}
}
