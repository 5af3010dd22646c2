package main

// The planner experiment (-exp planner): the adaptive retrieval planner
// against every static policy at three corpus scales. Each scale builds
// a FamilyCorpus registry, sweeps a fixed probe mix (family probes plus
// rare-token probes — the incoming-schema shapes the repository serves)
// through all four policies, and records aggregate sweep time, recall@10
// against the exhaustive scan, the strategies the planner chose, and the
// planning step's allocations. Gated: planned recall@10 must be exactly
// 1.0 at every scale, the planned sweep must not be slower than any
// static policy at any scale, and planning must not allocate. Stop-heavy
// probes (where no budgeted policy reaches recall 1.0 and the planner's
// job is only to not lose to the best static) are exercised by the
// property tests in internal/registry, not gated here.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/workloads"
)

// plannerTopK is the ranking depth of every planner-workload sweep.
const plannerTopK = 10

// plannerScales are the corpus sizes of the planner workload. The small
// scale is where static policies are near-indistinguishable (the planner
// must simply not lose); the large scales are where a fixed fraction of
// the corpus diverges from the probe's reachable cluster and the
// adaptive budget pays off.
var plannerScales = []int{200, 2000, 20000}

// plannerProbeSpec is one probe of the workload mix.
type plannerProbeSpec struct {
	name string
	rare bool
	fam  int
	seed int64
}

// plannerProbes returns the probe mix for one corpus scale: one family
// probe per domain, plus rare-token probes over four domains once the
// corpus is large enough for them to be meaningful. Against the small
// corpus's 20-schema families a rare-token probe is degenerate — its
// reachable posting pool is smaller than any candidate budget and the
// exhaustive top-10 is dominated by matches sharing no raw token at all
// (thesaurus and structural similarity only), which no token-driven
// policy, static or planned, can retrieve; the not-losing guarantee for
// that shape is covered by the internal/registry property tests. The
// large scale trims the mix — its exhaustive ground-truth sweeps
// dominate the experiment's runtime — while keeping both probe shapes.
func plannerProbes(k int) []plannerProbeSpec {
	var specs []plannerProbeSpec
	if k >= 20000 {
		for _, f := range []int{0, 4, 8} {
			specs = append(specs, plannerProbeSpec{name: fmt.Sprintf("fam%d", f), fam: f, seed: 1234})
		}
		for _, f := range []int{3, 6} {
			specs = append(specs, plannerProbeSpec{name: fmt.Sprintf("rare%d", f), rare: true, fam: f, seed: 55})
		}
		return specs
	}
	for f := 0; f < workloads.NumFamilies(); f++ {
		specs = append(specs, plannerProbeSpec{name: fmt.Sprintf("fam%d", f), fam: f, seed: 1234})
	}
	if k >= 2000 {
		for _, f := range []int{1, 3, 6, 8} {
			specs = append(specs, plannerProbeSpec{name: fmt.Sprintf("rare%d", f), rare: true, fam: f, seed: 55})
		}
	}
	return specs
}

// plannerReps is how many times each policy's sweep is repeated at a
// given corpus scale (the aggregate is the fastest repetition — the
// standard way to strip scheduler and allocator noise from a
// deterministic workload). Small corpora sweep in tens of milliseconds
// and need the repetitions; the 20k scale's exhaustive sweep runs for
// tens of seconds and is its own noise floor.
func plannerReps(k int) int {
	switch {
	case k >= 20000:
		return 1
	case k >= 2000:
		return 3
	default:
		return 5
	}
}

// plannerNoiseMargin is the measurement-noise guard on the time gate: at
// the small scale the planner picks the same strategy and budget as the
// best static policy for most probes, so the two sweeps do identical
// work and a strict comparison of equal quantities is a coin flip. The
// planner must stay within this fraction of every static policy — a real
// regression (a mis-planned probe pays a full extra scan) is an order of
// magnitude larger than this margin.
const plannerNoiseMargin = 0.05

// PlannerScalePoint is one corpus scale's measurements.
type PlannerScalePoint struct {
	K      int `json:"k"`
	Probes int `json:"probes"`
	// Aggregate wall clock for one full probe sweep per policy.
	ExactNs   int64 `json:"exact_ns"`
	PrunedNs  int64 `json:"pruned_ns"`
	IndexedNs int64 `json:"indexed_ns"`
	PlannedNs int64 `json:"planned_ns"`
	// Recall@10 against the exhaustive scan, averaged over the mix.
	PrunedRecall  float64 `json:"pruned_recall"`
	IndexedRecall float64 `json:"indexed_recall"`
	PlannedRecall float64 `json:"planned_recall"`
	// Strategies counts the planner's choices over the mix ("pruned": 2).
	Strategies map[string]int `json:"strategies"`
	// MeanPlannedBudget / MeanStaticBudget compare the planner's candidate
	// budgets with the static indexed policy's fixed fraction.
	MeanPlannedBudget float64 `json:"mean_planned_budget"`
	MeanStaticBudget  float64 `json:"mean_static_budget"`
	// PlanAllocsPerOp is heap allocations per Plan call (warm probe).
	PlanAllocsPerOp float64 `json:"plan_allocs_per_op"`
}

// PlannerPoint is the -exp planner report: one cell per corpus scale.
type PlannerPoint struct {
	TopK   int                 `json:"top_k"`
	Scales []PlannerScalePoint `json:"scales"`
}

// plannerRegistry builds and fills the registry for one scale. Schemas
// are generated and registered over the worker pool: corpus construction
// is ~half linguistic analysis and dominates the experiment's setup at
// the 20k scale.
func plannerRegistry(cfg core.Config, k int) (*registry.Registry, error) {
	reg, err := registry.New(cfg)
	if err != nil {
		return nil, err
	}
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{
		PerFamily: k / workloads.NumFamilies(),
		Seed:      17,
	})
	return reg, registerCorpus(corpus, func(*model.Schema) *registry.Registry { return reg })
}

// registerCorpus registers every schema into the registry target picks
// for it, fanned over the worker pool, and returns the first error.
func registerCorpus(corpus []*model.Schema, target func(*model.Schema) *registry.Registry) error {
	var mu sync.Mutex
	var firstErr error
	par.For(len(corpus), func(i int) {
		s := corpus[i]
		if _, _, err := target(s).Register(s.Name, s); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// sweep runs every probe through one retrieval policy, returning the
// aggregate wall clock and the per-probe rankings.
func sweep(probes []*core.Prepared, run func(*core.Prepared) ([]registry.Ranked, error)) (int64, [][]registry.Ranked, error) {
	out := make([][]registry.Ranked, len(probes))
	start := time.Now()
	for i, p := range probes {
		ranked, err := run(p)
		if err != nil {
			return 0, nil, err
		}
		out[i] = ranked
	}
	return time.Since(start).Nanoseconds(), out, nil
}

// sweepInterleaved repeats every policy's sweep reps times, cycling
// through the policies within each repetition, and keeps each policy's
// fastest aggregate. Two biases are neutralized beyond plain
// min-of-reps: ambient load drifts over seconds, so running one
// policy's repetitions back to back would hand whichever policy ran in
// the quietest window a phantom win (cycling samples the same windows
// for every policy); and the position within a cycle matters — the
// exhaustive sweep's garbage inflates the GC pacer's target, taxing
// whoever runs after it — so the starting policy rotates per repetition
// and each sweep starts from a freshly collected heap. The retrieval
// paths are deterministic, so the rankings of any repetition are
// interchangeable.
func sweepInterleaved(probes []*core.Prepared, reps int, runs []func(*core.Prepared) ([]registry.Ranked, error)) ([]int64, [][][]registry.Ranked, error) {
	bestNs := make([]int64, len(runs))
	out := make([][][]registry.Ranked, len(runs))
	for r := 0; r < reps; r++ {
		for j := range runs {
			i := (r + j) % len(runs)
			runtime.GC()
			ns, ranked, err := sweep(probes, runs[i])
			if err != nil {
				return nil, nil, err
			}
			if out[i] == nil || ns < bestNs[i] {
				bestNs[i], out[i] = ns, ranked
			}
		}
	}
	return bestNs, out, nil
}

// meanRecall is the mean top-K name overlap of each ranking with its
// probe's exhaustive ground truth.
func meanRecall(truth, got [][]registry.Ranked) float64 {
	total, hits := 0, 0
	for i := range truth {
		exact := topNames(truth[i])
		total += len(truth[i])
		for _, rk := range got[i] {
			if exact[rk.Entry.Name] {
				hits++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// runPlannerScale measures one corpus scale.
func runPlannerScale(cfg core.Config, k int) (*PlannerScalePoint, error) {
	reg, err := plannerRegistry(cfg, k)
	if err != nil {
		return nil, err
	}
	specs := plannerProbes(k)
	probes := make([]*core.Prepared, len(specs))
	for i, ps := range specs {
		s := workloads.FamilyProbe(ps.fam, ps.seed)
		if ps.rare {
			s = workloads.RareTokenProbe(ps.fam, ps.seed)
		}
		p, err := reg.Matcher().Prepare(s)
		if err != nil {
			return nil, err
		}
		p.Signature() // warm the cached signature: planning is measured, not memoization
		probes[i] = p
	}
	pruneOpt := registry.DefaultPruneOptions()
	indexOpt := registry.DefaultIndexOptions()
	planOpt := registry.DefaultPlanOptions()

	pt := &PlannerScalePoint{
		K:          reg.Len(),
		Probes:     len(probes),
		Strategies: map[string]int{},
	}

	// One warm-up scan (page in entries and code paths), then the timed
	// sweeps. The exact sweep doubles as ground truth.
	if _, err := reg.MatchAll(probes[0], plannerTopK); err != nil {
		return nil, err
	}
	reps := plannerReps(k)
	bestNs, rankings, err := sweepInterleaved(probes, reps, []func(*core.Prepared) ([]registry.Ranked, error){
		func(p *core.Prepared) ([]registry.Ranked, error) {
			return reg.MatchAll(p, plannerTopK)
		},
		func(p *core.Prepared) ([]registry.Ranked, error) {
			ranked, _, err := reg.Match(p, plannerTopK, registry.PlanOptions{Force: registry.StrategyPruned, Prune: pruneOpt})
			return ranked, err
		},
		func(p *core.Prepared) ([]registry.Ranked, error) {
			ranked, _, err := reg.Match(p, plannerTopK, registry.PlanOptions{Force: registry.StrategyIndexed, Index: indexOpt})
			return ranked, err
		},
		func(p *core.Prepared) ([]registry.Ranked, error) {
			ranked, _, err := reg.Match(p, plannerTopK, planOpt)
			return ranked, err
		},
	})
	if err != nil {
		return nil, err
	}
	exactNs, prunedNs, indexedNs, plannedNs := bestNs[0], bestNs[1], bestNs[2], bestNs[3]
	truth, pruned, indexed, planned := rankings[0], rankings[1], rankings[2], rankings[3]
	// The decisions themselves, outside the timed loops (planning is
	// deterministic, so these are exactly the choices the timed planned
	// sweep made).
	var budgets int64
	for _, p := range probes {
		pl := reg.Plan(p, plannerTopK, planOpt)
		pt.Strategies[pl.Strategy.String()]++
		budgets += int64(pl.Budget)
	}

	pt.ExactNs, pt.PrunedNs, pt.IndexedNs, pt.PlannedNs = exactNs, prunedNs, indexedNs, plannedNs
	pt.PrunedRecall = meanRecall(truth, pruned)
	pt.IndexedRecall = meanRecall(truth, indexed)
	pt.PlannedRecall = meanRecall(truth, planned)
	pt.MeanPlannedBudget = float64(budgets) / float64(len(probes))
	pt.MeanStaticBudget = float64(indexOpt.Limit(reg.Len(), plannerTopK))
	pt.PlanAllocsPerOp = testing.AllocsPerRun(200, func() {
		reg.Plan(probes[0], plannerTopK, planOpt)
	})
	return pt, nil
}

// renderStrategies formats a strategy histogram deterministically.
func renderStrategies(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// runPlanner executes the planner-vs-static workload at every scale,
// enforces the planner gates, and merges the result into the bench
// report at outPath (preserving any other experiment's data).
func runPlanner(outPath string) error {
	cfg := core.DefaultConfig()
	point := &PlannerPoint{TopK: plannerTopK}
	fmt.Println("cupidbench: retrieval planner vs static policies (FamilyCorpus, top-10)")
	fmt.Println("  corpus  probes  exact ms  pruned ms  indexed ms  planned ms  recall pl/ix/pr  budget pl/static  plan choices")
	for _, k := range plannerScales {
		pt, err := runPlannerScale(cfg, k)
		if err != nil {
			return err
		}
		point.Scales = append(point.Scales, *pt)
		fmt.Printf("  %6d  %6d  %8.1f  %9.1f  %10.1f  %10.1f  %.2f/%.2f/%.2f   %5.0f/%-5.0f      %s\n",
			pt.K, pt.Probes,
			float64(pt.ExactNs)/1e6, float64(pt.PrunedNs)/1e6,
			float64(pt.IndexedNs)/1e6, float64(pt.PlannedNs)/1e6,
			pt.PlannedRecall, pt.IndexedRecall, pt.PrunedRecall,
			pt.MeanPlannedBudget, pt.MeanStaticBudget,
			renderStrategies(pt.Strategies))

		// Gates, per scale: the planner must never lose recall, must not
		// be slower than any static policy on the aggregate sweep, and the
		// planning step itself must be free.
		if pt.PlannedRecall != 1.0 {
			return fmt.Errorf("planner gate: recall@%d = %.3f at corpus %d, want exactly 1.0 (the plan lost results the exact scan finds)",
				plannerTopK, pt.PlannedRecall, pt.K)
		}
		for name, staticNs := range map[string]int64{"exact": pt.ExactNs, "pruned": pt.PrunedNs, "indexed": pt.IndexedNs} {
			if float64(pt.PlannedNs) > float64(staticNs)*(1+plannerNoiseMargin) {
				return fmt.Errorf("planner gate: planned sweep %.1fms slower than static %s %.1fms at corpus %d (tolerance %.0f%%)",
					float64(pt.PlannedNs)/1e6, name, float64(staticNs)/1e6, pt.K, 100*plannerNoiseMargin)
			}
		}
		if pt.PlanAllocsPerOp != 0 {
			return fmt.Errorf("planner gate: planning allocates %.1f objects/op at corpus %d, want 0", pt.PlanAllocsPerOp, pt.K)
		}
	}

	// Merge into the bench report without clobbering other experiments.
	report := BenchReport{}
	if data, err := os.ReadFile(outPath); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("parsing existing %s: %w", outPath, err)
		}
	}
	report.GeneratedUnix = time.Now().Unix()
	if report.GoMaxProcs == 0 {
		report.GoMaxProcs = runtime.GOMAXPROCS(0)
		report.NumCPU = runtime.NumCPU()
		report.Workers = par.Workers()
	}
	report.Planner = point
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("planner results merged into %s\n", outPath)
	return nil
}
