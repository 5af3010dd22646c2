package main

// The corpus experiment (-exp corpus): corpus-scale schema clustering and
// family-routed retrieval. One cell clusters a 10k-schema FamilyCorpus
// registry into families (index-generated candidate pairs, greedy-medoid
// components) and races family-routed retrieval against the flat indexed
// path over a family-probe mix, gated on the family route being faster
// with recall@10 >= 0.98 against the exhaustive scan. A second cell
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
)

// corpusScale is the registry size of the routing cell: large enough that
// generic tokens are stop-common (candidate generation is family-pure)
// and the per-family member sets dwarf the medoid probe list.
const corpusScale = 10000

// corpusTopK is the ranking depth of the routing sweeps.
const corpusTopK = 10

// corpusRecallGate is the routing cell's recall floor against the
// exhaustive scan.
const corpusRecallGate = 0.98

// corpusReplicaDocs sizes the durability cell's corpus: small enough to
// restart and replicate in milliseconds, large enough for several
// non-trivial families.
const corpusReplicaDocs = 600

// CorpusPoint is the -exp corpus report cell.
type CorpusPoint struct {
	// Corpus / Families / MedoidsProbed describe the routing cell's
	// clustering: repository size, families found, medoids the family
	// route probes per query.
	Corpus        int `json:"corpus"`
	Families      int `json:"families"`
	MedoidsProbed int `json:"medoids_probed"`
	Probes        int `json:"probes"`
	// ClusterNs is the one-off clustering cost (index-driven candidate
	// generation plus greedy-medoid assignment).
	ClusterNs int64 `json:"cluster_ns"`
	// IndexedNs / FamilyNs are the aggregate probe-sweep wall clocks.
	IndexedNs int64 `json:"indexed_ns"`
	FamilyNs  int64 `json:"family_ns"`
	// FamilySpeedup is IndexedNs / FamilyNs (the gated ratio).
	FamilySpeedup float64 `json:"family_speedup"`
	// Recall@10 against the exhaustive scan.
	IndexedRecall float64 `json:"indexed_recall_at_10"`
	FamilyRecall  float64 `json:"family_recall_at_10"`
	// Durability cell: the clustering's canonical bytes served after a
	// restart, and by a replication follower, are byte-identical to the
	// node that clustered.
	ReplicaDocs      int  `json:"replica_docs"`
	RestartIdentical bool `json:"restart_identical"`
	ReplicaIdentical bool `json:"replica_identical"`
}

// runCorpusRouting measures the routing cell: cluster the 10k corpus,
// then race family-routed retrieval against the flat indexed path.
func runCorpusRouting(cfg core.Config, point *CorpusPoint) error {
	reg, err := familyRegistry(cfg, corpusScale, 17)
	if err != nil {
		return err
	}
	point.Corpus = reg.Len()

	start := time.Now()
	res, err := reg.ClusterFamilies(corpus.Options{})
	if err != nil {
		return err
	}
	point.ClusterNs = time.Since(start).Nanoseconds()
	if err := reg.SetFamilies(res); err != nil {
		return err
	}
	point.Families = len(res.Families)
	point.MedoidsProbed = len(res.Families)
	fmt.Printf("  clustered %d schemas into %d families in %.1fms\n",
		res.Corpus, len(res.Families), float64(point.ClusterNs)/1e6)

	// One family probe per domain — the incoming-schema shape the
	// repository serves; rare-token probes are the planner workload's
	// concern.
	probes, err := prepareProbes(reg.Matcher(), familyProbes(1234))
	if err != nil {
		return err
	}
	point.Probes = len(probes)

	// Exhaustive ground truth, untimed (the planner workload times it).
	var truth, indexed, family [][]registry.Ranked
	if err := sweepArm(probes, retrieval(reg, corpusTopK, exactPlan), &truth)(); err != nil {
		return err
	}
	famOpt := registry.DefaultPlanOptions()
	famOpt.Force = registry.StrategyFamily
	t, err := timeArms(
		sweepArm(probes, retrieval(reg, corpusTopK, registry.PlanOptions{Force: registry.StrategyIndexed}), &indexed),
		sweepArm(probes, retrieval(reg, corpusTopK, famOpt), &family),
	)
	if err != nil {
		return err
	}
	point.IndexedNs, point.FamilyNs = t[0].ns, t[1].ns
	point.FamilySpeedup = float64(point.IndexedNs) / float64(point.FamilyNs)
	point.IndexedRecall = meanRecall(truth, indexed)
	point.FamilyRecall = meanRecall(truth, family)

	// The family route must actually route (not fall back), asserted via
	// the stats of one representative call.
	_, st, err := reg.Match(probes[0], corpusTopK, famOpt)
	if err != nil {
		return err
	}
	if st.Strategy != registry.StrategyFamily || st.FamilyFallback {
		return fmt.Errorf("corpus gate: family retrieval fell back (strategy %s, fallback %v) — the clustering is not routable", st.Strategy, st.FamilyFallback)
	}

	fmt.Printf("  1-vs-%d, top-%d, %d probes: indexed %.1fms, family %.1fms (%.2fx), recall ix/fam %.3f/%.3f\n",
		point.Corpus, corpusTopK, point.Probes,
		float64(point.IndexedNs)/1e6, float64(point.FamilyNs)/1e6, point.FamilySpeedup,
		point.IndexedRecall, point.FamilyRecall)

	if point.FamilyNs >= point.IndexedNs {
		return fmt.Errorf("corpus gate: family-routed sweep %.1fms is not faster than flat indexed %.1fms at corpus %d",
			float64(point.FamilyNs)/1e6, float64(point.IndexedNs)/1e6, point.Corpus)
	}
	if point.FamilyRecall < corpusRecallGate {
		return fmt.Errorf("corpus gate: family recall@%d = %.3f at corpus %d, want >= %.2f",
			corpusTopK, point.FamilyRecall, point.Corpus, corpusRecallGate)
	}
	return nil
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
	fmt.Println("cupidbench: corpus clustering + family-routed retrieval (FamilyCorpus)")
	if err := runCorpusRouting(cfg, point); err != nil {
		return err
	}
	if err := runCorpusDurability(cfg, point); err != nil {
		return err
	}

	return writeReport(outPath, func(r *BenchReport) { r.Corpus = point })
}
