package main

// The corpus experiment (-exp corpus): retrieval recall at corpus scale.
// It registers a 10k-schema FamilyCorpus and gates planned and indexed
// retrieval on recall@10 >= 0.98 against the exhaustive scan over a
// family-probe mix; it gates the same on a bridged 10k corpus, whose
// families chain together through shared vocabulary.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/workloads"
)

// corpusScale is the registry size of the recall cell: large enough that
// generic tokens are stop-common.
const corpusScale = 10000

// corpusBridge bridges every corpusBridge-th member of each family to the
// next family's vocabulary in the recall cell's second corpus.
const corpusBridge = 4

// corpusTopK is the ranking depth of the recall sweeps.
const corpusTopK = 10

// corpusRecallGate is the recall cell's floor against the exhaustive
// scan.
const corpusRecallGate = 0.98

// CorpusPoint is the -exp corpus report cell.
type CorpusPoint struct {
	// Corpus is the repository size of each recall sweep; Probes the
	// number of probes each sweep ranks.
	Corpus int `json:"corpus"`
	Probes int `json:"probes"`
	// Recall@10 against the exhaustive scan on the plain corpus.
	IndexedRecall float64 `json:"indexed_recall_at_10"`
	PlannedRecall float64 `json:"planned_recall_at_10"`
	// The same on the bridged corpus (FamilyCorpusSpec.Bridge).
	Bridge               int     `json:"bridge"`
	BridgedIndexedRecall float64 `json:"bridged_indexed_recall_at_10"`
	BridgedPlannedRecall float64 `json:"bridged_planned_recall_at_10"`
}

// corpusRecall registers the 10k FamilyCorpus with the given Bridge (0:
// none) and returns planned and indexed recall@10 against the exhaustive
// scan over one family probe per domain.
func corpusRecall(cfg core.Config, bridge int, point *CorpusPoint) (planned, indexed float64, err error) {
	spec := workloads.FamilyCorpusSpec{PerFamily: corpusScale / workloads.NumFamilies(), Seed: 17, Bridge: bridge}
	reg, err := registryOf(cfg, workloads.FamilyCorpus(spec))
	if err != nil {
		return 0, 0, err
	}
	point.Corpus = reg.Len()

	probes, err := prepareProbes(reg.Matcher(), familyProbes(1234))
	if err != nil {
		return 0, 0, err
	}
	point.Probes = len(probes)
	var truth, plannedR, indexedR [][]registry.Ranked
	for _, arm := range []func() error{
		sweepArm(probes, retrieval(reg, corpusTopK, exactPlan), &truth),
		sweepArm(probes, retrieval(reg, corpusTopK, registry.DefaultPlanOptions()), &plannedR),
		sweepArm(probes, retrieval(reg, corpusTopK, registry.PlanOptions{Force: registry.StrategyIndexed}), &indexedR),
	} {
		if err := arm(); err != nil {
			return 0, 0, err
		}
	}
	planned, indexed = meanRecall(truth, plannedR), meanRecall(truth, indexedR)
	fmt.Printf("  1-vs-%d (bridge %d), top-%d, %d probes: recall planned/indexed %.3f/%.3f\n",
		reg.Len(), bridge, corpusTopK, len(probes), planned, indexed)
	if min(planned, indexed) < corpusRecallGate {
		return 0, 0, fmt.Errorf("corpus gate: recall@%d planned %.3f, indexed %.3f at corpus %d (bridge %d), want both >= %.2f",
			corpusTopK, planned, indexed, reg.Len(), bridge, corpusRecallGate)
	}
	return planned, indexed, nil
}

// runCorpus executes the corpus workload on the plain and the bridged
// corpus, enforces its gates, and merges the result into the report at
// outPath.
func runCorpus(outPath string) (err error) {
	cfg := core.DefaultConfig()
	point := &CorpusPoint{}
	fmt.Println("cupidbench: corpus-scale retrieval recall (FamilyCorpus, plain and bridged)")
	if point.PlannedRecall, point.IndexedRecall, err = corpusRecall(cfg, 0, point); err != nil {
		return err
	}
	point.Bridge = corpusBridge
	if point.BridgedPlannedRecall, point.BridgedIndexedRecall, err = corpusRecall(cfg, corpusBridge, point); err != nil {
		return err
	}
	return writeReport(outPath, func(r *BenchReport) { r.Corpus = point })
}
