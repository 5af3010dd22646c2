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
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	cupid "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/workloads"
)

// corpusScale is the registry size of the routing cell: large enough that
// generic tokens are stop-common (candidate generation is family-pure)
// and the per-family member sets dwarf the medoid probe list.
const corpusScale = 10000

// corpusTopK is the ranking depth of the routing sweeps.
const corpusTopK = 10

// corpusReps repeats each timed sweep, keeping the fastest (min-of-reps
// over interleaved repetitions, same discipline as the planner workload).
const corpusReps = 2

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

// corpusRegistry builds and fills the routing cell's registry (same
// FamilyCorpus generation as the planner workload).
func corpusRegistry(cfg core.Config, k int) (*registry.Registry, error) {
	reg, err := registry.New(cfg)
	if err != nil {
		return nil, err
	}
	return reg, registerCorpus(namedFamilyCorpus(k), func(*model.Schema) *registry.Registry { return reg })
}

// runCorpusRouting measures the routing cell: cluster the 10k corpus,
// then race family-routed retrieval against the flat indexed path.
func runCorpusRouting(cfg core.Config, point *CorpusPoint) error {
	reg, err := corpusRegistry(cfg, corpusScale)
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
	probes := make([]*core.Prepared, 0, workloads.NumFamilies())
	for f := 0; f < workloads.NumFamilies(); f++ {
		p, err := reg.Matcher().Prepare(workloads.FamilyProbe(f, 1234))
		if err != nil {
			return err
		}
		p.Signature()
		probes = append(probes, p)
	}
	point.Probes = len(probes)

	// Exhaustive ground truth, untimed (the planner workload times it).
	truth := make([][]registry.Ranked, len(probes))
	for i, p := range probes {
		if truth[i], err = reg.MatchAll(p, corpusTopK); err != nil {
			return err
		}
	}

	indexOpt := registry.PlanOptions{Force: registry.StrategyIndexed, Index: registry.DefaultIndexOptions()}
	famOpt := registry.DefaultPlanOptions()
	famOpt.Force = registry.StrategyFamily
	bestNs, rankings, err := sweepInterleaved(probes, corpusReps, []func(*core.Prepared) ([]registry.Ranked, error){
		func(p *core.Prepared) ([]registry.Ranked, error) {
			ranked, _, err := reg.Match(p, corpusTopK, indexOpt)
			return ranked, err
		},
		func(p *core.Prepared) ([]registry.Ranked, error) {
			ranked, _, err := reg.Match(p, corpusTopK, famOpt)
			return ranked, err
		},
	})
	if err != nil {
		return err
	}
	point.IndexedNs, point.FamilyNs = bestNs[0], bestNs[1]
	point.FamilySpeedup = float64(point.IndexedNs) / float64(point.FamilyNs)
	point.IndexedRecall = meanRecall(truth, rankings[0])
	point.FamilyRecall = meanRecall(truth, rankings[1])

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
	priDir, err := os.MkdirTemp("", "cupidbench-corpus-pri-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(priDir)
	folDir, err := os.MkdirTemp("", "cupidbench-corpus-fol-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(folDir)

	open := func(dir string) (*registry.Persistent, error) {
		m, err := core.NewMatcher(cfg)
		if err != nil {
			return nil, err
		}
		p, warns, err := registry.OpenPersistentOptions(dir, m, registry.PersistOptions{}, cupid.ParseSchema)
		if err != nil {
			return nil, err
		}
		if len(warns) > 0 {
			return nil, fmt.Errorf("recovery warnings on %s: %v", dir, warns)
		}
		return p, nil
	}

	pri, err := open(priDir)
	if err != nil {
		return err
	}
	defer func() {
		if pri != nil {
			pri.Close()
		}
	}()
	docs := namedFamilyCorpus(corpusReplicaDocs)
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
	pri2, err := open(priDir)
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
	fol, err := open(folDir)
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
// the result into the bench report at outPath.
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
	report.Corpus = point
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("corpus results merged into %s\n", outPath)
	return nil
}
