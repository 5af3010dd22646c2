package main

// The corpus experiment (-exp corpus): corpus-scale schema clustering as a
// view of the corpus. The recall cell clusters a 10k-schema FamilyCorpus
// registry into families (index-generated candidate pairs, greedy-medoid
// components), installs the clustering, and gates planned and indexed
// retrieval on recall@10 >= 0.98 against the exhaustive scan over a
// family-probe mix; it gates the same on a bridged 10k corpus, whose
// families chain together through shared vocabulary. A second cell
// persists a clustering through the write-ahead journal, restarts the
// node, and replicates it to a follower, gated on both serving
// byte-identical family assignments (the canonical clustering bytes).

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/registry"
	"repro/internal/workloads"
)

// corpusScale is the registry size of the recall cell: large enough that
// generic tokens are stop-common and clustering cost is measurable.
const corpusScale = 10000

// corpusBridge bridges every corpusBridge-th member of each family to the
// next family's vocabulary in the recall cell's second corpus.
const corpusBridge = 4

// corpusTopK is the ranking depth of the recall sweeps.
const corpusTopK = 10

// corpusRecallGate is the recall cell's floor against the exhaustive
// scan.
const corpusRecallGate = 0.98

// corpusReplicaDocs sizes the durability cell's corpus: small enough to
// restart and replicate in milliseconds, large enough for several
// non-trivial families.
const corpusReplicaDocs = 600

// CorpusPoint is the -exp corpus report cell.
type CorpusPoint struct {
	// Corpus / Families describe the recall cell's clustering: repository
	// size and families found.
	Corpus   int `json:"corpus"`
	Families int `json:"families"`
	Probes   int `json:"probes"`
	// ClusterNs is the one-off clustering cost (index-driven candidate
	// generation plus greedy-medoid assignment).
	ClusterNs int64 `json:"cluster_ns"`
	// Recall@10 against the exhaustive scan on the clustered corpus.
	IndexedRecall float64 `json:"indexed_recall_at_10"`
	PlannedRecall float64 `json:"planned_recall_at_10"`
	// The same on the bridged corpus (FamilyCorpusSpec.Bridge).
	Bridge               int     `json:"bridge"`
	BridgedIndexedRecall float64 `json:"bridged_indexed_recall_at_10"`
	BridgedPlannedRecall float64 `json:"bridged_planned_recall_at_10"`
	// Durability cell: the clustering's canonical bytes served after a
	// restart, and by a replication follower, are byte-identical to the
	// node that clustered.
	ReplicaDocs      int  `json:"replica_docs"`
	RestartIdentical bool `json:"restart_identical"`
	ReplicaIdentical bool `json:"replica_identical"`
}

// corpusRecall registers the 10k FamilyCorpus with the given Bridge (0:
// none), clusters it when cluster is set, and returns planned and indexed
// recall@10 against the exhaustive scan over one family probe per domain.
func corpusRecall(cfg core.Config, bridge int, cluster bool, point *CorpusPoint) (planned, indexed float64, err error) {
	spec := workloads.FamilyCorpusSpec{PerFamily: corpusScale / workloads.NumFamilies(), Seed: 17, Bridge: bridge}
	reg, err := registryOf(cfg, workloads.FamilyCorpus(spec))
	if err != nil {
		return 0, 0, err
	}
	if cluster {
		start := time.Now()
		res, err := reg.ClusterFamilies(corpus.Options{})
		if err != nil {
			return 0, 0, err
		}
		point.ClusterNs = time.Since(start).Nanoseconds()
		if err := reg.SetFamilies(res); err != nil {
			return 0, 0, err
		}
		point.Corpus, point.Families = reg.Len(), len(res.Families)
		fmt.Printf("  clustered %d schemas into %d families in %.1fms\n",
			res.Corpus, len(res.Families), float64(point.ClusterNs)/1e6)
	}

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

// runCorpusRecall measures the recall cell on the clustered plain corpus
// and on the bridged one.
func runCorpusRecall(cfg core.Config, point *CorpusPoint) (err error) {
	if point.PlannedRecall, point.IndexedRecall, err = corpusRecall(cfg, 0, true, point); err != nil {
		return err
	}
	point.Bridge = corpusBridge
	point.BridgedPlannedRecall, point.BridgedIndexedRecall, err = corpusRecall(cfg, corpusBridge, false, point)
	return err
}

// runCorpusDurability measures the durability cell: persist a clustering
// through the journal, restart, replicate, and compare canonical bytes.
func runCorpusDurability(cfg core.Config, point *CorpusPoint) (err error) {
	priDir, folDir, cleanup, err := replicaDirs()
	if err != nil {
		return err
	}
	defer cleanup()

	pri, err := openDataDir(cfg, priDir)
	if err != nil {
		return err
	}
	defer func() {
		if pri != nil {
			pri.Close()
		}
	}()
	docs := familyCorpus(corpusReplicaDocs, 17)
	point.ReplicaDocs = len(docs)
	for _, s := range docs {
		if _, _, err := pri.Register(s.Name, s); err != nil {
			return err
		}
	}
	res, err := pri.ClusterFamilies(corpus.Options{})
	if err != nil {
		return err
	}
	if err := pri.StoreFamilies(res); err != nil {
		return err
	}
	want := append([]byte(nil), pri.FamiliesJSON()...)
	if len(want) == 0 {
		return fmt.Errorf("corpus gate: primary has no canonical clustering bytes after StoreFamilies")
	}

	// Restart: close, reopen, and the recovered node must serve the exact
	// clustering bytes (installed from the journaled metadata document).
	if err := pri.Close(); err != nil {
		return err
	}
	pri = nil
	pri2, err := openDataDir(cfg, priDir)
	if err != nil {
		return err
	}
	defer pri2.Close()
	point.RestartIdentical = bytes.Equal(pri2.FamiliesJSON(), want)
	fmt.Printf("  restarted node clustering bytes identical: %v (%d bytes, %d families)\n",
		point.RestartIdentical, len(want), len(res.Families))
	if !point.RestartIdentical {
		return fmt.Errorf("corpus gate: restarted node's clustering differs from the one stored")
	}

	// Replicate: a fresh follower applying the replication stream must
	// serve the same bytes (the metadata document ships like any put).
	fol, err := openDataDir(cfg, folDir)
	if err != nil {
		return err
	}
	defer fol.Close()
	target := pri2.ReplicationPos()
	state := &registry.ReplState{}
	if _, err := shipStream(pri2, fol, state, registry.ReplPos{}, 0, &target, nil); err != nil {
		return err
	}
	point.ReplicaIdentical = bytes.Equal(fol.FamiliesJSON(), want) && fol.Len() == pri2.Len()
	fmt.Printf("  replicated node clustering bytes identical: %v (%d docs)\n",
		point.ReplicaIdentical, fol.Len())
	if !point.ReplicaIdentical {
		return fmt.Errorf("corpus gate: follower's clustering differs from the primary's")
	}
	return nil
}

// runCorpus executes the corpus workload, enforces its gates, and merges
// the result into the report at outPath.
func runCorpus(outPath string) error {
	cfg := core.DefaultConfig()
	point := &CorpusPoint{}
	fmt.Println("cupidbench: corpus clustering, retrieval recall and clustering durability (FamilyCorpus)")
	if err := runCorpusRecall(cfg, point); err != nil {
		return err
	}
	if err := runCorpusDurability(cfg, point); err != nil {
		return err
	}

	return writeReport(outPath, func(r *BenchReport) { r.Corpus = point })
}
