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
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
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
func plannerProbes(k int) []*model.Schema {
	fams, rares := familyProbes(1234), []int{1, 3, 6, 8}
	switch {
	case k >= 20000:
		fams, rares = []*model.Schema{fams[0], fams[4], fams[8]}, []int{3, 6}
	case k < 2000:
		rares = nil
	}
	for _, f := range rares {
		fams = append(fams, workloads.RareTokenProbe(f, 55))
	}
	return fams
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

// runPlannerScale measures one corpus scale.
func runPlannerScale(cfg core.Config, k int) (*PlannerScalePoint, error) {
	reg, err := familyRegistry(cfg, k, 17)
	if err != nil {
		return nil, err
	}
	probes, err := prepareProbes(reg.Matcher(), plannerProbes(k))
	if err != nil {
		return nil, err
	}
	planOpt := registry.DefaultPlanOptions()
	policies := []policy{
		retrieval(reg, plannerTopK, exactPlan),
		retrieval(reg, plannerTopK, registry.PlanOptions{Force: registry.StrategyPruned}),
		retrieval(reg, plannerTopK, registry.PlanOptions{Force: registry.StrategyIndexed}),
		retrieval(reg, plannerTopK, planOpt),
	}
	// The exact sweep doubles as ground truth.
	rankings := make([][][]registry.Ranked, len(policies))
	arms := make([]func() error, len(policies))
	for i, run := range policies {
		arms[i] = sweepArm(probes, run, &rankings[i])
	}
	t, err := timeArms(arms...)
	if err != nil {
		return nil, err
	}
	pt := &PlannerScalePoint{
		K:          reg.Len(),
		Probes:     len(probes),
		ExactNs:    t[0].ns,
		PrunedNs:   t[1].ns,
		IndexedNs:  t[2].ns,
		PlannedNs:  t[3].ns,
		Strategies: map[string]int{},
	}
	// The decisions themselves, outside the timed loops (planning is
	// deterministic, so these are exactly the choices the timed planned
	// sweep made).
	var budgets int64
	for _, p := range probes {
		pl := reg.Plan(p, plannerTopK, planOpt)
		pt.Strategies[pl.Strategy.String()]++
		budgets += int64(pl.Budget)
	}
	pt.PrunedRecall = meanRecall(rankings[0], rankings[1])
	pt.IndexedRecall = meanRecall(rankings[0], rankings[2])
	pt.PlannedRecall = meanRecall(rankings[0], rankings[3])
	pt.MeanPlannedBudget = float64(budgets) / float64(len(probes))
	static, err := forcedBudget(reg, probes[0], plannerTopK, registry.StrategyIndexed)
	if err != nil {
		return nil, err
	}
	pt.MeanStaticBudget = float64(static)
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
// enforces the planner gates, and merges the result into the report at
// outPath.
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

	return writeReport(outPath, func(r *BenchReport) { r.Planner = point })
}
