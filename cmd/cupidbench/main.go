// Command cupidbench regenerates the tables and figures of the paper's
// evaluation section (§9) and prints the measured results next to the
// paper's reported ones.
//
// Usage:
//
//	cupidbench [-exp NAME] [-csv] [-benchout PATH] [-overload-window D]
//	cupidbench -compare BASELINE [-benchout PATH]
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
//	           asserted 1.0) + the 1-vs-2000 indexed-retrieval workload
//	overload   serving-layer saturation harness: closed-loop mixed
//	           register/match traffic at 1x/2x/4x capacity through the
//	           admission-controlled frontend (goodput, shed, degraded,
//	           p50/p99 per cell), cache warm-vs-cold speedup, and
//	           cached/uncached/degraded ranking-identity checks
//	planner    retrieval planner vs static policies: family and
//	           rare-token probe sweeps over 1-vs-200, 1-vs-2000 and
//	           1-vs-20000 FamilyCorpus registries, gated on planned
//	           recall@10 = 1.0, planned aggregate time <= every static
//	           policy, and an allocation-free planning step
//	cluster    scale-out workload: scatter-gather over 1/2/4
//	           consistent-hash shards (aggregate matches/sec gated
//	           >= 1.6x from 1 to 4, merged recall@10 gated exactly
//	           1.0) plus the killed-and-restarted replica, gated on
//	           byte-identical convergence with the primary
//	corpus     corpus-scale retrieval: gate planned and indexed
//	           recall@10 >= 0.98 vs the exhaustive scan on a 10k
//	           FamilyCorpus registry and on a bridged 10k corpus
//	crossformat  generic-model fan-in + instance-aware matching: the
//	           cross-format corpus (each family rendered as SQL DDL,
//	           JSON Schema and Avro; the examples/crossformat files)
//	           probed against itself (top-1 family accuracy gated
//	           >= 0.95, cross-format recall@10 exactly 1.0), and the
//	           ambiguous-names tie-break corpus matched with and
//	           without instance profiles (instance blending gated to
//	           strictly beat name-only top-1)
//	all        the paper's experiments, table1 through ablation (default)
//
// bench, overload, planner, cluster, corpus and crossformat each merge
// their own blocks into the report at -benchout (BENCH_cupid.json),
// keeping every other experiment's, so they can run in any order. Every
// timed comparison keeps each arm's fastest of interleaved repetitions;
// one-off costs (the cache's cold pass, the cross-format sweep) are timed
// once. -overload-window sets the length of each overload load cell.
//
// With -csv, the scale and ablation experiments additionally emit CSV to
// stdout (the raw series behind the figures).
//
// With -compare BASELINE, no experiment runs: the report at -benchout is
// diffed against BASELINE and the command fails when any speedup ratio
// degraded more than 25% or any recall metric dropped at all — the
// bench-trend regression gate CI runs after regenerating the report.
// Compare reports recorded on the same host: speedups depend on the
// machine.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

// flags is the command line an experiment runs under.
type flags struct {
	csv            bool
	benchOut       string
	overloadWindow time.Duration
}

// experiment is one -exp choice. inAll marks the paper's experiments,
// the ones -exp all runs; the rest are slow or write the bench report.
type experiment struct {
	name  string
	inAll bool
	run   func(flags) error
}

// experiments is the -exp table, in the order -exp all runs it.
var experiments = []experiment{
	{"table1", true, func(flags) error {
		fmt.Println(eval.Table1())
		return nil
	}},
	{"table2", true, func(flags) error {
		rows, err := eval.Table2()
		if err == nil {
			fmt.Println(eval.RenderTable2(rows))
		}
		return err
	}},
	{"table3", true, func(flags) error {
		res, err := eval.Table3()
		if err == nil {
			fmt.Println(eval.RenderTable3(res))
		}
		return err
	}},
	{"rdbstar", true, func(flags) error {
		res, err := eval.RDBStar()
		if err == nil {
			fmt.Println(res.Render())
		}
		return err
	}},
	{"thesaurus", true, func(flags) error {
		rs, err := eval.ThesaurusAblation()
		if err == nil {
			fmt.Println(eval.RenderAblations("thesaurus ablation (§9.3 conclusion 2)", rs, "no-thesaurus"))
		}
		return err
	}},
	{"lingonly", true, func(flags) error {
		rs, err := eval.LinguisticOnly()
		if err == nil {
			fmt.Println(eval.RenderAblations("linguistic-only over path names (§9.3 conclusion 3)", rs, "ling-only"))
		}
		return err
	}},
	{"university", true, func(flags) error {
		res, m, err := eval.RunCupid(workloads.University(), core.DefaultConfig())
		if err != nil {
			return err
		}
		fmt.Println("university generalization workload (registrar -> SIS)")
		fmt.Printf("  leaf mapping: %s\n", m)
		fmt.Print(indent(res.Mapping.String(), "  "))
		fmt.Println()
		return nil
	}},
	{"scale", true, func(f flags) error {
		pts, err := eval.Scalability()
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderScale(pts))
		if f.csv {
			return eval.WriteScaleCSV(os.Stdout, pts)
		}
		return nil
	}},
	{"ablation", true, func(f flags) error {
		rows, err := eval.Ablations()
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderAblationRows(rows))
		if f.csv {
			return eval.WriteAblationCSV(os.Stdout, rows)
		}
		return nil
	}},
	{"tune", false, func(flags) error {
		res, err := tuner.Grid(workloads.Figure2(), core.DefaultConfig(), tuner.DefaultSpace())
		if err == nil {
			fmt.Println(res.Render(10))
		}
		return err
	}},
	{"bench", false, func(f flags) error { return runBench(f.benchOut) }},
	{"overload", false, func(f flags) error { return runOverload(f.benchOut, f.overloadWindow) }},
	{"planner", false, func(f flags) error { return runPlanner(f.benchOut) }},
	{"cluster", false, func(f flags) error { return runCluster(f.benchOut) }},
	{"corpus", false, func(f flags) error { return runCorpus(f.benchOut) }},
	{"crossformat", false, func(f flags) error { return runCrossFormat(f.benchOut) }},
}

// selectExperiments resolves an -exp value: "all" is every inAll entry,
// any other value one table entry. ok is false for an unknown name.
func selectExperiments(name string) (sel []experiment, ok bool) {
	for _, e := range experiments {
		if e.name == name || (name == "all" && e.inAll) {
			sel = append(sel, e)
		}
	}
	return sel, len(sel) > 0
}

// cli runs the command line args and returns the process exit code: 2
// for a usage error (as the flag package does), 1 for a failed
// experiment or gate.
func cli(args []string, stderr io.Writer) int {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	fs := flag.NewFlagSet("cupidbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(append(names, "all"), ", "))
	var f flags
	fs.BoolVar(&f.csv, "csv", false, "also emit CSV for scale/ablation")
	fs.StringVar(&f.benchOut, "benchout", "BENCH_cupid.json", "report the bench, overload, planner, cluster, corpus and crossformat experiments merge into")
	fs.DurationVar(&f.overloadWindow, "overload-window", time.Second, "timed window per -exp overload load cell")
	compare := fs.String("compare", "", "baseline BENCH_cupid.json to gate -benchout against: fail when any speedup ratio degrades > 25% or any recall drops (no experiment runs)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *compare != "" {
		if err := runCompare(f.benchOut, *compare); err != nil {
			fmt.Fprintln(stderr, "cupidbench:", err)
			return 1
		}
		return 0
	}
	sel, ok := selectExperiments(*exp)
	if !ok {
		fmt.Fprintf(stderr, "cupidbench: unknown experiment %q\n", *exp)
		return 2
	}
	for _, e := range sel {
		if err := e.run(f); err != nil {
			fmt.Fprintln(stderr, "cupidbench:", err)
			return 1
		}
	}
	return 0
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stderr))
}
