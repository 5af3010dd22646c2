package main

// The bench experiment: a sequential-vs-parallel perf trajectory for the
// whole Match pipeline plus the repository workloads (1-vs-K prepared
// batch, 1-vs-200 pruned retrieval and 1-vs-2000 indexed retrieval),
// merged into BENCH_cupid.json so future changes have a baseline to
// compare against. CI records numbers only after its check job
// (check.sh's gofmt, vet and doc gates plus the -race suites) passes.

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/workloads"
)

// BenchPoint is one workload's measurement.
type BenchPoint struct {
	Name     string `json:"name"`
	Elements int    `json:"elements"` // total elements across both schemas
	Leaves   int    `json:"leaves"`
	// Sequential (one worker) vs parallel (default pool) full-pipeline
	// cost. Allocs counts heap objects per op (runtime.MemStats.Mallocs).
	SeqNsPerOp     int64   `json:"seq_ns_per_op"`
	ParNsPerOp     int64   `json:"par_ns_per_op"`
	SeqAllocsPerOp int64   `json:"seq_allocs_per_op"`
	ParAllocsPerOp int64   `json:"par_allocs_per_op"`
	Speedup        float64 `json:"speedup"` // seq/par wall-clock ratio
}

// BatchPoint measures the repository workload: one probe schema matched
// against K registered schemas, naively (K independent Match calls, each
// re-validating, re-expanding and re-analyzing both sides) versus via the
// prepared-schema registry (probe prepared once per op, repository
// prepared once ever, MatchAll fanning over the worker pool).
type BatchPoint struct {
	K             int `json:"k"`
	ProbeElements int `json:"probe_elements"`
	RepoElements  int `json:"repo_elements"` // total across the K schemas
	// Cost of one full 1-vs-K sweep.
	NaiveNsPerOp        int64   `json:"naive_ns_per_op"`
	PreparedNsPerOp     int64   `json:"prepared_ns_per_op"`
	NaiveAllocsPerOp    int64   `json:"naive_allocs_per_op"`
	PreparedAllocsPerOp int64   `json:"prepared_allocs_per_op"`
	Speedup             float64 `json:"speedup"` // naive/prepared wall clock
}

// PrunePoint measures candidate pruning on the big-repository workload:
// one probe ranked against K prepared schemas, exhaustively (MatchAll runs
// the full tree match K times) versus pruned (the forced pruned strategy
// runs cheap signature affinities over all K, then the full match only on
// the top candidates). Recall@K compares the two top-K result lists; the bench
// fails unless it is exactly 1.0 — pruning must not change what the
// caller sees on this corpus.
type PrunePoint struct {
	K          int `json:"k"`
	TopK       int `json:"top_k"`
	Candidates int `json:"candidates"` // entries that reached the full match
	// Cost of one full 1-vs-K ranking.
	FullNsPerOp   int64   `json:"full_ns_per_op"`
	PrunedNsPerOp int64   `json:"pruned_ns_per_op"`
	Speedup       float64 `json:"speedup"` // full/pruned wall clock
	RecallAtK     float64 `json:"recall_at_k"`
}

// IndexPoint measures indexed retrieval on the big-repository workload:
// one probe ranked against K prepared schemas three ways — exhaustively
// (MatchAll), signature-pruned (an affinity against every entry, full
// match on the top quarter), and indexed (the token inverted index
// generates candidates from genuine token overlap only, full match on the
// top eighth), the latter two as forced plans. Recall@K is averaged over
// one probe per corpus family against the exact scan; the bench fails
// unless indexed recall is >= 0.98 and the indexed path beats the pruned
// one on wall clock.
type IndexPoint struct {
	K    int `json:"k"`
	TopK int `json:"top_k"`
	// PrunedCandidates and IndexedCandidates are the two paths' full-match
	// budgets (same Limit policy, different default fractions).
	PrunedCandidates  int `json:"pruned_candidates"`
	IndexedCandidates int `json:"indexed_candidates"`
	// CandidatesScored is how many entries the index
	// actually scored for the timed probe (survivors of the stop-posting
	// cut); the pruned path always scores all K.
	CandidatesScored int `json:"candidates_scored"`
	// Cost of one full 1-vs-K ranking per path.
	FullNsPerOp     int64   `json:"full_ns_per_op"`
	PrunedNsPerOp   int64   `json:"pruned_ns_per_op"`
	IndexedNsPerOp  int64   `json:"indexed_ns_per_op"`
	SpeedupVsPruned float64 `json:"speedup_vs_pruned"` // pruned/indexed wall clock
	SpeedupVsFull   float64 `json:"speedup_vs_full"`   // full/indexed wall clock
	// RecallAtK / PrunedRecallAtK: mean top-K overlap with the exact scan
	// across the per-family probes.
	RecallAtK       float64 `json:"recall_at_k"`
	PrunedRecallAtK float64 `json:"pruned_recall_at_k"`
}

// benchSpecs is the sweep measured by -exp bench: the eval scalability
// specs plus one larger workload so the trajectory has a point where the
// quadratic phases clearly dominate.
func benchSpecs() []workloads.SyntheticSpec {
	specs := eval.ScalabilitySpecs()
	specs = append(specs, workloads.SyntheticSpec{
		Tables: 24, ColsPerTable: 16, Depth: 3, Seed: 7, Rename: 0.3, Renest: 0.2, FKs: 6,
	})
	return specs
}

// withWorkers is op run under a worker cap of n (0 = the default pool),
// restoring the previous cap after each call.
func withWorkers(n int, op func() error) func() error {
	return func() error {
		prev := par.SetMaxWorkers(n)
		defer par.SetMaxWorkers(prev)
		return op()
	}
}

// batchK is the repository size of the batch workload: one probe schema
// against K=50 prepared schemas.
const batchK = 50

// runBatch measures the repository workload. The naive baseline issues K
// independent Match calls on a shared matcher — the pairwise API, which
// re-validates, re-expands and re-analyzes the probe and the stored
// schema on every call (re-analysis finds every name already normalized
// in the shared matcher's name table, so it costs lookups and category
// building, not normalization). The prepared path registers the
// repository once (outside the timed loop; that is the point of the
// registry), then pays per op only the probe's Prepare plus MatchAll.
func runBatch(cfg core.Config) (*BatchPoint, error) {
	probe := workloads.Synthetic(workloads.SyntheticSpec{
		Tables: 2, ColsPerTable: 6, Depth: 2, Seed: 99, Rename: 0.3, Renest: 0.2,
	}).Source
	repo := make([]*model.Schema, batchK)
	repoElements := 0
	for i := range repo {
		s := workloads.Synthetic(workloads.SyntheticSpec{
			Tables: 2, ColsPerTable: 6, Depth: 2, Seed: int64(i + 1), Rename: 0.4, Renest: 0.3,
		}).Target
		s.Name = fmt.Sprintf("%s-r%d", s.Name, i)
		repo[i] = s
		repoElements += s.Len()
	}
	naive, err := core.NewMatcher(cfg)
	if err != nil {
		return nil, err
	}
	reg, err := registry.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := registerCorpus(repo, func(*model.Schema) *registry.Registry { return reg }); err != nil {
		return nil, err
	}
	t, err := timeArms(
		func() error {
			for _, s := range repo {
				if _, err := naive.Match(probe, s); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			p, err := reg.Matcher().Prepare(probe)
			if err != nil {
				return err
			}
			_, err = reg.MatchAll(p, 0)
			return err
		},
	)
	if err != nil {
		return nil, err
	}
	return &BatchPoint{
		K:                   batchK,
		ProbeElements:       probe.Len(),
		RepoElements:        repoElements,
		NaiveNsPerOp:        t[0].ns,
		PreparedNsPerOp:     t[1].ns,
		NaiveAllocsPerOp:    t[0].allocs,
		PreparedAllocsPerOp: t[1].allocs,
		Speedup:             float64(t[0].ns) / float64(t[1].ns),
	}, nil
}

// pruneK is the repository size of the pruning workload and pruneTopK the
// requested ranking depth (1-vs-200, recall@K = 1.0).
const (
	pruneK    = 200
	pruneTopK = 10
)

// runPrune measures the pruned-vs-full retrieval workload on the
// family-structured example corpus (workloads.FamilyCorpus): 200 schemas
// across 10 domain vocabularies, probe drawn from one of them. The full
// scan tree-matches all 200; the pruned path tree-matches only the
// signature-ranked candidates. Besides timing, it verifies recall: the
// pruned top-K must be element-for-element the exhaustive top-K.
func runPrune(cfg core.Config) (*PrunePoint, error) {
	reg, err := familyRegistry(cfg, pruneK, 11)
	if err != nil {
		return nil, err
	}
	probes, err := prepareProbes(reg.Matcher(), []*model.Schema{workloads.FamilyProbe(3, 42)})
	if err != nil {
		return nil, err
	}
	var full, pruned [][]registry.Ranked
	t, err := timeArms(
		sweepArm(probes, retrieval(reg, pruneTopK, exactPlan), &full),
		sweepArm(probes, retrieval(reg, pruneTopK, registry.PlanOptions{Force: registry.StrategyPruned}), &pruned),
	)
	if err != nil {
		return nil, err
	}
	candidates, err := forcedBudget(reg, probes[0], pruneTopK, registry.StrategyPruned)
	if err != nil {
		return nil, err
	}
	recall := 0.0
	for i, rk := range full[0] {
		if i < len(pruned[0]) && pruned[0][i].Entry.Name == rk.Entry.Name && pruned[0][i].Score == rk.Score {
			recall++
		}
	}
	return &PrunePoint{
		K:             pruneK,
		TopK:          pruneTopK,
		Candidates:    candidates,
		FullNsPerOp:   t[0].ns,
		PrunedNsPerOp: t[1].ns,
		Speedup:       float64(t[0].ns) / float64(t[1].ns),
		RecallAtK:     recall / float64(len(full[0])),
	}, nil
}

// indexK is the repository size of the indexed retrieval workload and
// indexTopK its ranking depth (1-vs-2000, recall@10 >= 0.98 vs the exact
// scan, indexed beats pruned on time).
const (
	indexK    = 2000
	indexTopK = 10
)

// runIndexed measures the 1-vs-2000 retrieval workload on the family
// corpus: exhaustive MatchAll vs the forced signature-pruned and indexed
// strategies. Wall clock is measured on one probe; recall@K is averaged
// over one probe per family (10 probes) so the >= 0.98 gate has real
// granularity instead of 1/topK steps.
func runIndexed(cfg core.Config) (*IndexPoint, error) {
	reg, err := familyRegistry(cfg, indexK, 17)
	if err != nil {
		return nil, err
	}
	probes, err := prepareProbes(reg.Matcher(), familyProbes(99))
	if err != nil {
		return nil, err
	}
	policies := []policy{
		retrieval(reg, indexTopK, exactPlan),
		retrieval(reg, indexTopK, registry.PlanOptions{Force: registry.StrategyPruned}),
		retrieval(reg, indexTopK, registry.PlanOptions{Force: registry.StrategyIndexed}),
	}
	rankings := make([][][]registry.Ranked, len(policies))
	timed := make([]func() error, len(policies))
	var sink [][]registry.Ranked
	for i, run := range policies {
		if err := sweepArm(probes, run, &rankings[i])(); err != nil {
			return nil, err
		}
		timed[i] = sweepArm(probes[4:5], run, &sink)
	}
	_, stats, err := reg.Match(probes[4], indexTopK, registry.PlanOptions{Force: registry.StrategyIndexed})
	if err != nil {
		return nil, err
	}
	prunedCandidates, err := forcedBudget(reg, probes[4], indexTopK, registry.StrategyPruned)
	if err != nil {
		return nil, err
	}
	t, err := timeArms(timed...)
	if err != nil {
		return nil, err
	}
	return &IndexPoint{
		K:                 indexK,
		TopK:              indexTopK,
		PrunedCandidates:  prunedCandidates,
		IndexedCandidates: stats.CandidateBudget,
		CandidatesScored:  stats.CandidatesScored,
		FullNsPerOp:       t[0].ns,
		PrunedNsPerOp:     t[1].ns,
		IndexedNsPerOp:    t[2].ns,
		SpeedupVsPruned:   float64(t[1].ns) / float64(t[2].ns),
		SpeedupVsFull:     float64(t[0].ns) / float64(t[2].ns),
		RecallAtK:         meanRecall(rankings[0], rankings[2]),
		PrunedRecallAtK:   meanRecall(rankings[0], rankings[1]),
	}, nil
}

// benchNote explains the bench blocks of the report.
const benchNote = "full Match pipeline, fresh matcher per op; sequential = 1 worker, " +
	"parallel = default pool; speedup tracks wall clock and approaches the " +
	"core count on multi-core hardware (1.0 on a single-core machine). " +
	"batch = 1 probe vs K prepared repository schemas: naive re-runs " +
	"expansion+analysis per Match call, prepared pays them once (registry). " +
	"prune = 1 probe vs K on the family corpus: full MatchAll scan vs " +
	"the forced signature-pruned strategy, recall@K asserted exactly 1.0. " +
	"index = 1 probe vs 2000 on the family corpus: forced token inverted " +
	"index vs pruned scan vs full scan, recall@10 averaged over one probe " +
	"per family and asserted >= 0.98, indexed required to beat pruned on " +
	"wall clock. Every ns/op is the fastest of the interleaved repetitions"

// runBench executes the sweep and the repository workloads, enforces
// their gates, and merges the bench blocks into the report at outPath.
func runBench(outPath string) error {
	fmt.Println("cupidbench: sequential vs parallel pipeline sweep")
	fmt.Printf("  GOMAXPROCS=%d NumCPU=%d workers=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), par.Workers())
	fmt.Println("  elements  leaves  seq ns/op      par ns/op      speedup  allocs seq/par")
	cfg := core.DefaultConfig()
	var points []BenchPoint
	for _, spec := range benchSpecs() {
		w := workloads.Synthetic(spec)
		// Each op builds a fresh Matcher (cold caches), matching how the
		// eval harness runs.
		pipeline := func() error {
			_, _, err := eval.RunCupid(w, cfg)
			return err
		}
		t, err := timeArms(withWorkers(1, pipeline), withWorkers(0, pipeline))
		if err != nil {
			return err
		}
		src := w.Source.ComputeStats()
		dst := w.Target.ComputeStats()
		pt := BenchPoint{
			Name:           w.Name,
			Elements:       w.Source.Len() + w.Target.Len(),
			Leaves:         src.Leaves + dst.Leaves,
			SeqNsPerOp:     t[0].ns,
			ParNsPerOp:     t[1].ns,
			SeqAllocsPerOp: t[0].allocs,
			ParAllocsPerOp: t[1].allocs,
			Speedup:        float64(t[0].ns) / float64(t[1].ns),
		}
		points = append(points, pt)
		fmt.Printf("  %8d  %6d  %-13d  %-13d  %6.2fx  %d/%d  %s\n",
			pt.Elements, pt.Leaves, pt.SeqNsPerOp, pt.ParNsPerOp, pt.Speedup,
			pt.SeqAllocsPerOp, pt.ParAllocsPerOp, pt.Name)
	}
	fmt.Printf("cupidbench: batch repository workload (1 probe vs K=%d prepared schemas)\n", batchK)
	batch, err := runBatch(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("  naive (K Match calls):    %-13d ns/op  %d allocs/op\n", batch.NaiveNsPerOp, batch.NaiveAllocsPerOp)
	fmt.Printf("  prepared (registry):      %-13d ns/op  %d allocs/op\n", batch.PreparedNsPerOp, batch.PreparedAllocsPerOp)
	fmt.Printf("  speedup: %.2fx  alloc ratio: %.2fx\n", batch.Speedup,
		float64(batch.NaiveAllocsPerOp)/float64(batch.PreparedAllocsPerOp))
	if batch.PreparedNsPerOp >= batch.NaiveNsPerOp || batch.PreparedAllocsPerOp >= batch.NaiveAllocsPerOp {
		return fmt.Errorf("batch workload regression: prepared matching must beat %d independent Match calls on time and allocs (got %d vs %d ns/op, %d vs %d allocs/op)",
			batchK, batch.PreparedNsPerOp, batch.NaiveNsPerOp, batch.PreparedAllocsPerOp, batch.NaiveAllocsPerOp)
	}

	fmt.Printf("cupidbench: pruned retrieval workload (1 probe vs K=%d, top-%d)\n", pruneK, pruneTopK)
	prune, err := runPrune(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("  full scan (MatchAll):     %-13d ns/op\n", prune.FullNsPerOp)
	fmt.Printf("  pruned (%3d):             %-13d ns/op\n", prune.Candidates, prune.PrunedNsPerOp)
	fmt.Printf("  speedup: %.2fx  recall@%d: %.3f\n", prune.Speedup, prune.TopK, prune.RecallAtK)
	if prune.RecallAtK != 1.0 {
		return fmt.Errorf("prune workload recall regression: recall@%d = %.3f, want exactly 1.0 (pruning changed the top-K ranking)", prune.TopK, prune.RecallAtK)
	}
	if prune.PrunedNsPerOp >= prune.FullNsPerOp {
		return fmt.Errorf("prune workload regression: pruned ranking must beat the full scan on time (got %d vs %d ns/op)", prune.PrunedNsPerOp, prune.FullNsPerOp)
	}

	fmt.Printf("cupidbench: indexed retrieval workload (1 probe vs K=%d, top-%d)\n", indexK, indexTopK)
	idx, err := runIndexed(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("  full scan (MatchAll):        %-13d ns/op\n", idx.FullNsPerOp)
	fmt.Printf("  pruned (%4d):               %-13d ns/op  recall@%d %.3f\n", idx.PrunedCandidates, idx.PrunedNsPerOp, idx.TopK, idx.PrunedRecallAtK)
	fmt.Printf("  indexed (%3d):               %-13d ns/op  recall@%d %.3f  scored %d/%d\n",
		idx.IndexedCandidates, idx.IndexedNsPerOp, idx.TopK, idx.RecallAtK, idx.CandidatesScored, idx.K)
	fmt.Printf("  speedup vs pruned: %.2fx  vs full: %.2fx\n", idx.SpeedupVsPruned, idx.SpeedupVsFull)
	if idx.RecallAtK < 0.98 {
		return fmt.Errorf("index workload recall regression: recall@%d = %.3f vs the exact scan, want >= 0.98", idx.TopK, idx.RecallAtK)
	}
	if idx.IndexedNsPerOp >= idx.PrunedNsPerOp {
		return fmt.Errorf("index workload regression: indexed retrieval must beat the pruned scan on time (got %d vs %d ns/op)", idx.IndexedNsPerOp, idx.PrunedNsPerOp)
	}

	return writeReport(outPath, func(r *BenchReport) {
		r.Note = benchNote
		r.Points, r.Batch, r.Prune, r.Index = points, batch, prune, idx
	})
}
