package main

// Bench-trend regression gating (-compare): diff a freshly generated
// BENCH_cupid.json against a committed baseline and fail when the trend
// regresses. The walk is schema-agnostic — any numeric field whose JSON
// key contains "speedup" is a ratio that must not degrade more than
// compareSpeedupTolerance, and any key containing "recall" is a quality
// floor that must not drop at all — so new experiments are gated the
// moment they start reporting, without touching this file.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// compareSpeedupTolerance is how much of a baseline speedup ratio may be
// lost before the comparison fails: fresh >= baseline * (1 - tolerance).
// Machine-to-machine and run-to-run noise on the gated ratios is well
// under this; losing more than a quarter of a speedup is a real trend
// break, not noise.
const compareSpeedupTolerance = 0.25

// compareFinding is one regressed metric.
type compareFinding struct {
	path     string
	baseline float64
	fresh    float64
	kind     string // "speedup" or "recall"
	// missing marks a gated value the fresh report does not have.
	missing bool
}

func (f compareFinding) String() string {
	switch {
	case f.missing:
		return fmt.Sprintf("%s: %s %.4f -> missing (experiment %q is not in the fresh report, or did not report this value)",
			f.path, f.kind, f.baseline, experimentOf(f.path))
	case f.kind == "speedup":
		return fmt.Sprintf("%s: speedup %.3f -> %.3f (lost %.0f%%, tolerance %.0f%%)",
			f.path, f.baseline, f.fresh, 100*(1-f.fresh/f.baseline), 100*compareSpeedupTolerance)
	default:
		return fmt.Sprintf("%s: recall %.4f -> %.4f (any drop fails)", f.path, f.baseline, f.fresh)
	}
}

// gatedKind classifies a JSON key: "speedup" ratios, "recall" floors, or
// "" for everything else.
func gatedKind(key string) string {
	k := strings.ToLower(key)
	switch {
	case strings.Contains(k, "speedup"):
		return "speedup"
	case strings.Contains(k, "recall"):
		return "recall"
	}
	return ""
}

// compareWalk recursively walks baseline and fresh in lockstep,
// collecting regressions on gated numeric leaves. A gated metric present
// in the baseline but missing from the fresh report is a regression too
// (an experiment silently dropped is not an improvement); metrics new in
// the fresh report pass ungated (no baseline to hold them to).
func compareWalk(path string, baseline, fresh any, findings *[]compareFinding) {
	switch b := baseline.(type) {
	case map[string]any:
		f, ok := fresh.(map[string]any)
		if !ok {
			f = map[string]any{}
		}
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			compareWalk(path+"."+k, b[k], f[k], findings)
		}
	case []any:
		f, _ := fresh.([]any)
		for i, bv := range b {
			var fv any
			if i < len(f) {
				fv = f[i]
			}
			compareWalk(fmt.Sprintf("%s[%d]", path, i), bv, fv, findings)
		}
	case float64:
		key := path
		if i := strings.LastIndexAny(path, ".]"); i >= 0 {
			key = path[i+1:]
		}
		kind := gatedKind(key)
		if kind == "" {
			return
		}
		fv, ok := fresh.(float64)
		if !ok {
			*findings = append(*findings, compareFinding{path: path, baseline: b, kind: kind, missing: true})
			return
		}
		switch kind {
		case "speedup":
			if fv < b*(1-compareSpeedupTolerance) {
				*findings = append(*findings, compareFinding{path: path, baseline: b, fresh: fv, kind: kind})
			}
		case "recall":
			if fv < b {
				*findings = append(*findings, compareFinding{path: path, baseline: b, fresh: fv, kind: kind})
			}
		}
	}
}

// experimentOf returns the experiment a finding's path lies in: its
// top-level key, as in "$.planner.sweeps[1].recall_at_10" -> "planner".
func experimentOf(path string) string {
	exp := strings.TrimPrefix(path, "$.")
	if i := strings.IndexAny(exp, ".["); i >= 0 {
		exp = exp[:i]
	}
	return exp
}

// compareReports diffs two parsed reports, returning the regressions.
func compareReports(baseline, fresh any) []compareFinding {
	var findings []compareFinding
	compareWalk("$", baseline, fresh, &findings)
	return findings
}

// parseCompareJSON parses report bytes into the generic tree compareWalk
// consumes.
func parseCompareJSON(data []byte) (any, error) {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// runCompare loads the fresh report (freshPath, normally the -benchout
// just regenerated) and the committed baseline, and fails with every
// regressed metric listed when the trend broke.
func runCompare(freshPath, baselinePath string) error {
	parse := func(path string) (any, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		v, err := parseCompareJSON(data)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		return v, nil
	}
	baseline, err := parse(baselinePath)
	if err != nil {
		return err
	}
	fresh, err := parse(freshPath)
	if err != nil {
		return err
	}
	findings := compareReports(baseline, fresh)
	if len(findings) == 0 {
		fmt.Printf("bench compare: %s holds every speedup (within %.0f%%) and recall gate of %s\n",
			freshPath, 100*compareSpeedupTolerance, baselinePath)
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "bench compare: %d metric(s) regressed vs %s:\n", len(findings), baselinePath)
	for _, f := range findings {
		fmt.Fprintf(&sb, "  %s\n", f)
	}
	return fmt.Errorf("%s", strings.TrimRight(sb.String(), "\n"))
}
