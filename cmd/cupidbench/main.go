// Command cupidbench regenerates the tables and figures of the paper's
// evaluation section (§9) and prints the measured results next to the
// paper's reported ones.
//
// Usage:
//
//	cupidbench [-exp NAME]
//
// Experiments (-exp):
//
//	table1     parameter table (Table 1)
//	table2     canonical examples 1-6 vs DIKE and MOMIS (Table 2)
//	table3     CIDX -> Excel element mappings and leaf metrics (Table 3)
//	rdbstar    RDB -> Star warehouse experiment (§9.2)
//	thesaurus  thesaurus ablation (§9.3 conclusion 2)
//	lingonly   linguistic-only on full path names (§9.3 conclusion 3)
//	university extra generalization workload (registrar vs SIS)
//	scale      scalability sweep over synthetic schemas (§10 future work)
//	ablation   design-choice ablations on CIDX-Excel (E10)
//	tune       auto-tuning grid search (§10 future work)
//	bench      sequential-vs-parallel perf sweep + the 1-vs-K batch
//	           repository workload (naive Match calls vs the prepared-
//	           schema registry) + the 1-vs-200 pruned-retrieval workload
//	           (exhaustive scan vs the signature-pruned strategy, recall@K
//	           asserted 1.0) -> BENCH_cupid.json
//	overload   serving-layer saturation harness: closed-loop mixed
//	           register/match traffic at 1x/2x/4x capacity through the
//	           admission-controlled frontend (goodput, shed, degraded,
//	           p50/p99 per cell), cache warm-vs-cold speedup, and
//	           cached/uncached/degraded ranking-identity checks
//	           -> merged into BENCH_cupid.json
//	planner    retrieval planner vs static policies: family and
//	           rare-token probe sweeps over 1-vs-200, 1-vs-2000 and
//	           1-vs-20000 FamilyCorpus registries, gated on planned
//	           recall@10 = 1.0, planned aggregate time <= every static
//	           policy, and an allocation-free planning step
//	           -> merged into BENCH_cupid.json
//	cluster    scale-out workload: scatter-gather over 1/2/4
//	           consistent-hash shards (aggregate matches/sec gated
//	           >= 1.6x from 1 to 4, merged recall@10 gated exactly
//	           1.0) plus the killed-and-restarted replica, gated on
//	           byte-identical convergence with the primary
//	           -> merged into BENCH_cupid.json
//	corpus     corpus clustering + family-routed retrieval: cluster a
//	           10k FamilyCorpus registry into schema families and race
//	           family-routed matching against the flat indexed path
//	           (gated faster, recall@10 >= 0.98 vs the exhaustive
//	           scan), then persist a clustering through the journal
//	           and gate a restarted node and a replication follower on
//	           byte-identical family assignments
//	           -> merged into BENCH_cupid.json
//	crossformat  generic-model fan-in + instance-aware matching: the
//	           cross-format corpus (each family rendered as SQL DDL,
//	           JSON Schema and Avro; the examples/crossformat files)
//	           probed against itself (top-1 family accuracy gated
//	           >= 0.95, cross-format recall@10 exactly 1.0), and the
//	           ambiguous-names tie-break corpus matched with and
//	           without instance profiles (instance blending gated to
//	           strictly beat name-only top-1)
//	           -> merged into BENCH_cupid.json
//	all        everything (default; excludes tune, bench, overload,
//	           planner, cluster, corpus and crossformat)
//
// With -csv, the scale and ablation experiments additionally emit CSV to
// stdout (the raw series behind the figures).
//
// With -compare BASELINE, no experiment runs: the report at -benchout is
// diffed against the committed BASELINE and the command fails when any
// speedup ratio degraded more than 25% or any recall metric dropped at
// all — the bench-trend regression gate CI runs after regenerating the
// report.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/tuner"
	"repro/internal/workloads"
)

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func run(exp string, csvOut bool, benchOut string, benchSelfCheck bool, overloadWindow time.Duration) error {
	all := exp == "all"
	if all || exp == "table1" {
		fmt.Println(eval.Table1())
	}
	if all || exp == "table2" {
		rows, err := eval.Table2()
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderTable2(rows))
	}
	if all || exp == "table3" {
		res, err := eval.Table3()
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderTable3(res))
	}
	if all || exp == "rdbstar" {
		res, err := eval.RDBStar()
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if all || exp == "thesaurus" {
		rs, err := eval.ThesaurusAblation()
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderAblations("thesaurus ablation (§9.3 conclusion 2)", rs, "no-thesaurus"))
	}
	if all || exp == "lingonly" {
		rs, err := eval.LinguisticOnly()
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderAblations("linguistic-only over path names (§9.3 conclusion 3)", rs, "ling-only"))
	}
	if all || exp == "university" {
		w := workloads.University()
		res, m, err := eval.RunCupid(w, core.DefaultConfig())
		if err != nil {
			return err
		}
		fmt.Println("university generalization workload (registrar -> SIS)")
		fmt.Printf("  leaf mapping: %s\n", m)
		fmt.Print(indent(res.Mapping.String(), "  "))
		fmt.Println()
	}
	if all || exp == "scale" {
		pts, err := eval.Scalability()
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderScale(pts))
		if csvOut {
			if err := eval.WriteScaleCSV(os.Stdout, pts); err != nil {
				return err
			}
		}
	}
	if all || exp == "ablation" {
		rows, err := eval.Ablations()
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderAblationRows(rows))
		if csvOut {
			if err := eval.WriteAblationCSV(os.Stdout, rows); err != nil {
				return err
			}
		}
	}
	if exp == "tune" { // not part of "all": the grid is slow
		res, err := tuner.Grid(workloads.Figure2(), core.DefaultConfig(), tuner.DefaultSpace())
		if err != nil {
			return err
		}
		fmt.Println(res.Render(10))
	}
	if exp == "bench" { // not part of "all": minutes of timed runs
		if err := runBench(benchOut, benchSelfCheck); err != nil {
			return err
		}
	}
	if exp == "overload" { // not part of "all": seconds of timed load cells
		if err := runOverload(benchOut, overloadWindow); err != nil {
			return err
		}
	}
	if exp == "planner" { // not part of "all": builds a 20k-schema corpus
		if err := runPlanner(benchOut); err != nil {
			return err
		}
	}
	if exp == "cluster" { // not part of "all": seconds of timed sweeps
		if err := runCluster(benchOut); err != nil {
			return err
		}
	}
	if exp == "corpus" { // not part of "all": builds a 10k-schema corpus
		if err := runCorpus(benchOut); err != nil {
			return err
		}
	}
	if exp == "crossformat" { // not part of "all": merges into the bench report
		if err := runCrossFormat(benchOut); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, table3, rdbstar, thesaurus, lingonly, university, scale, ablation, tune, bench, overload, planner, cluster, corpus, crossformat, all")
	csvOut := flag.Bool("csv", false, "also emit CSV for scale/ablation")
	benchOut := flag.String("benchout", "BENCH_cupid.json", "output path for the -exp bench/overload/planner/cluster/corpus/crossformat report")
	benchSelfCheck := flag.Bool("selfcheck", true, "run go vet + race determinism tests before -exp bench")
	overloadWindow := flag.Duration("overload-window", time.Second, "timed window per -exp overload load cell")
	compare := flag.String("compare", "", "baseline BENCH_cupid.json to gate -benchout against: fail when any speedup ratio degrades > 25% or any recall drops (no experiment runs)")
	flag.Parse()
	if *compare != "" {
		if err := runCompare(*benchOut, *compare); err != nil {
			fmt.Fprintln(os.Stderr, "cupidbench:", err)
			os.Exit(1)
		}
		return
	}
	switch *exp {
	case "all", "table1", "table2", "table3", "rdbstar", "thesaurus", "lingonly", "university", "scale", "ablation", "tune", "bench", "overload", "planner", "cluster", "corpus", "crossformat":
	default:
		fmt.Fprintf(os.Stderr, "cupidbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err := run(*exp, *csvOut, *benchOut, *benchSelfCheck, *overloadWindow); err != nil {
		fmt.Fprintln(os.Stderr, "cupidbench:", err)
		os.Exit(1)
	}
}
