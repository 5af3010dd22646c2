package main

// Coverage for the harness spine: the -exp table (validation, the all
// selection, and its documentation in the package comment and README),
// the report writer's merge (no experiment may clobber another's
// blocks), and the report schema (every key the committed baseline
// carries, and so every metric -compare gates, still round-trips).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

const baselinePath = "../../BENCH_cupid.json"

// readBaseline decodes the committed report, rejecting any key the
// BenchReport type does not declare.
func readBaseline(t *testing.T) BenchReport {
	t.Helper()
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r BenchReport
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("committed BENCH_cupid.json does not decode into BenchReport: %v", err)
	}
	return r
}

// keyPaths collects the object key paths of a decoded JSON value, array
// indices collapsed to [].
func keyPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			out[prefix+"."+k] = true
			keyPaths(prefix+"."+k, sub, out)
		}
	case []any:
		for _, sub := range x {
			keyPaths(prefix+"[]", sub, out)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestReportSchemaMatchesBaseline(t *testing.T) {
	r := readBaseline(t)
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	reencoded, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want, got := map[string]bool{}, map[string]bool{}
	for _, c := range []struct {
		data []byte
		into map[string]bool
	}{{data, want}, {reencoded, got}} {
		v, err := parseCompareJSON(c.data)
		if err != nil {
			t.Fatal(err)
		}
		keyPaths("$", v, c.into)
	}
	if !reflect.DeepEqual(sortedKeys(want), sortedKeys(got)) {
		t.Fatalf("BenchReport no longer round-trips the committed report's key paths:\n baseline %v\n re-encoded %v",
			sortedKeys(want), sortedKeys(got))
	}
}

// reportBlocks lists, per report experiment, the top-level keys it owns
// and how to copy those blocks from one report to another.
var reportBlocks = []struct {
	exp  string
	keys []string
	copy func(dst, src *BenchReport)
}{
	{"bench", []string{"note", "points", "batch", "prune", "index"}, func(d, s *BenchReport) {
		d.Note, d.Points, d.Batch, d.Prune, d.Index = s.Note, s.Points, s.Batch, s.Prune, s.Index
	}},
	{"overload", []string{"overload"}, func(d, s *BenchReport) { d.Overload = s.Overload }},
	{"planner", []string{"planner"}, func(d, s *BenchReport) { d.Planner = s.Planner }},
	{"cluster", []string{"cluster"}, func(d, s *BenchReport) { d.Cluster = s.Cluster }},
	{"corpus", []string{"corpus"}, func(d, s *BenchReport) { d.Corpus = s.Corpus }},
	{"crossformat", []string{"crossformat"}, func(d, s *BenchReport) { d.CrossFormat = s.CrossFormat }},
}

// rawBlocks reads a report file as its top-level blocks' raw bytes.
func rawBlocks(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// writeRaw writes r the way writeReport formats a report.
func writeRaw(t *testing.T, path string, r BenchReport) {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReportKeepsOtherExperiments(t *testing.T) {
	baseline := readBaseline(t)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	writeRaw(t, full, baseline)
	want := rawBlocks(t, full)
	bench := reportBlocks[0]

	t.Run("bench into a report holding every other block", func(t *testing.T) {
		path := filepath.Join(dir, "others.json")
		others := baseline
		bench.copy(&others, &BenchReport{})
		writeRaw(t, path, others)
		before := rawBlocks(t, path)
		if err := writeReport(path, func(r *BenchReport) { bench.copy(r, &baseline) }); err != nil {
			t.Fatal(err)
		}
		after := rawBlocks(t, path)
		for _, b := range reportBlocks[1:] {
			for _, k := range b.keys {
				if !bytes.Equal(after[k], before[k]) {
					t.Errorf("writing the bench block changed %q", k)
				}
			}
		}
		for _, k := range bench.keys {
			if !bytes.Equal(after[k], want[k]) {
				t.Errorf("bench block %q not written", k)
			}
		}
	})

	t.Run("bench into a missing file", func(t *testing.T) {
		path := filepath.Join(dir, "missing.json")
		if err := writeReport(path, func(r *BenchReport) { bench.copy(r, &baseline) }); err != nil {
			t.Fatal(err)
		}
		after := rawBlocks(t, path)
		for _, k := range bench.keys {
			if !bytes.Equal(after[k], want[k]) {
				t.Errorf("bench block %q not written", k)
			}
		}
		if _, ok := after["planner"]; ok {
			t.Errorf("a fresh report carries a planner block nobody wrote")
		}
	})

	t.Run("all six experiments in reverse order", func(t *testing.T) {
		path := filepath.Join(dir, "reverse.json")
		for _, b := range slices.Backward(reportBlocks) {
			if err := writeReport(path, func(r *BenchReport) { b.copy(r, &baseline) }); err != nil {
				t.Fatal(err)
			}
		}
		after := rawBlocks(t, path)
		for _, b := range reportBlocks {
			for _, k := range b.keys {
				if !bytes.Equal(after[k], want[k]) {
					t.Errorf("%s block %q lost or changed by a later experiment", b.exp, k)
				}
			}
		}
	})

	t.Run("a corrupt report is an error, not overwritten", func(t *testing.T) {
		path := filepath.Join(dir, "corrupt.json")
		if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := writeReport(path, func(r *BenchReport) { bench.copy(r, &baseline) }); err == nil {
			t.Fatal("writeReport merged into an unparsable report")
		}
	})
}

// paperExperiments is what -exp all must run: the paper's §9 tables and
// the reproduction's extra paper-style workloads, never the slow or
// report-writing experiments.
var paperExperiments = []string{"table1", "table2", "table3", "rdbstar", "thesaurus", "lingonly", "university", "scale", "ablation"}

func TestExperimentTable(t *testing.T) {
	for _, args := range [][]string{{"-exp", "nope"}, {"-selfcheck"}} {
		if code := cli(args, io.Discard); code != 2 {
			t.Errorf("cupidbench %v exited %d, want 2", args, code)
		}
	}

	sel, ok := selectExperiments("all")
	names := make([]string, len(sel))
	for i, e := range sel {
		names[i] = e.name
	}
	if !ok || !slices.Equal(names, paperExperiments) {
		t.Errorf("-exp all selects %v, want %v", names, paperExperiments)
	}
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] || e.name == "all" {
			t.Errorf("experiment name %q is reserved or repeated", e.name)
		}
		seen[e.name] = true
		if sel, ok := selectExperiments(e.name); !ok || len(sel) != 1 {
			t.Errorf("-exp %s does not select exactly itself", e.name)
		}
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	godoc, _, _ := strings.Cut(string(src), "package main")
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Benchmarks\n")
	section, _, _ = strings.Cut(section, "\n## ")
	for _, e := range experiments {
		if !regexp.MustCompile(`(?m)^//\t` + e.name + `\s`).MatchString(godoc) {
			t.Errorf("package comment does not list experiment %s", e.name)
		}
		if !strings.Contains(section, "`-exp "+e.name+"`") {
			t.Errorf("README's Benchmarks section does not mention `-exp %s`", e.name)
		}
	}

	var usage bytes.Buffer
	if code := cli([]string{"-h"}, &usage); code != 0 {
		t.Fatalf("cupidbench -h exited %d", code)
	}
	flags := regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1)
	var flagNames []string
	for _, f := range flags {
		flagNames = append(flagNames, f[1])
		if !strings.Contains(godoc, "-"+f[1]) {
			t.Errorf("package comment does not mention flag -%s", f[1])
		}
	}
	if got := fmt.Sprint(flagNames); got != "[benchout compare csv exp overload-window]" {
		t.Errorf("flags = %s", got)
	}
}
