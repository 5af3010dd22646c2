package main

// The cluster experiment (-exp cluster): the scale-out story measured
// end to end, in-process. Three cells:
//
//   - Scaling: a FamilyCorpus is consistent-hash partitioned across 1,
//     2 and 4 shard registries (the same ring cupidrouter uses) and a
//     fixed probe mix is scatter-gathered through them. On this
//     single-core box the per-shard subqueries are timed serially and
//     each query is charged its *critical path* — the slowest shard's
//     subquery, which is what a deployment with a core per shard would
//     wait for — so aggregate matches/sec measures how sharding shrinks
//     per-query work, not how many goroutines one core can interleave.
//     The exhaustive retrieval path is used because its cost is
//     proportional to shard size, making the capacity claim exact;
//     the planner's recall through the sharded path is gated in the
//     recall cell. Gated: >= 1.6x aggregate matches/sec from 1 to 4
//     shards.
//   - Router recall: every probe's per-shard top-K rankings (adaptive
//     planner, the path cupidrouter actually fans out through) are
//     merged with serve.Merge and truncated with serve.Trim — the merge
//     and batch rule cupidrouter serves — and compared against the
//     single-node exhaustive ground truth. Gated: recall@10 exactly 1.0.
//   - Replica convergence: a WAL primary streams its journal to a
//     follower over the real replication codec (io.Pipe transport);
//     the follower is killed mid-stream by a byte-limited reader,
//     the primary keeps writing, the follower's directory is reopened
//     (a fresh process, in effect) and the stream resumed from its
//     checkpoint. Gated: the restarted follower's rankings are
//     byte-identical (as ranking keys) to the primary's.
//
// Results merge into BENCH_cupid.json next to the other experiments.

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/serve"
)

// clusterTopK is the ranking depth of every cluster-workload query.
const clusterTopK = 10

// clusterCorpusSize is the sharded corpus size. Large enough that the
// exhaustive per-shard scan dominates fixed per-query overhead (so the
// scaling cell measures sharding, not dispatch), small enough that the
// 1+2+4 shard sweep stays in seconds.
const clusterCorpusSize = 2000

// clusterShardCounts is the scaling sweep; the gate compares the first
// and last cells.
var clusterShardCounts = []int{1, 2, 4}

// clusterScalingGate is the minimum 1-to-4-shard aggregate throughput
// ratio. Perfect partitioning of the exhaustive scan would give ~4x
// (modulo ring imbalance); 1.6x leaves room for per-query fixed costs
// and hash skew while still failing if sharding stops shrinking
// per-query work.
const clusterScalingGate = 1.6

// clusterReplicaKillLimit is how many stream bytes the follower is
// allowed to read before the mid-stream kill. Sized to land partway
// through the initial catch-up (a handful of multi-KB document records)
// so the kill tears a frame rather than falling on a quiet stream.
const clusterReplicaKillLimit = 16 << 10

// ClusterScalePoint is one shard-count cell of the scaling sweep.
type ClusterScalePoint struct {
	Shards int `json:"shards"`
	// MinDocs/MaxDocs report the ring's partition balance.
	MinDocs int `json:"min_shard_docs"`
	MaxDocs int `json:"max_shard_docs"`
	// SweepNs is the aggregate critical-path time for one full probe
	// sweep: per probe, the slowest shard's subquery, each subquery at
	// its fastest repetition.
	SweepNs int64 `json:"sweep_ns"`
	// MatchesPerSec is probes / SweepNs: the aggregate throughput of a
	// cluster with a core per shard.
	MatchesPerSec float64 `json:"matches_per_sec"`
}

// ClusterPoint is the -exp cluster report.
type ClusterPoint struct {
	Corpus  int                 `json:"corpus"`
	TopK    int                 `json:"top_k"`
	Probes  int                 `json:"probes"`
	Scaling []ClusterScalePoint `json:"scaling"`
	// Speedup1To4 is the gated scaling ratio.
	Speedup1To4 float64 `json:"speedup_1_to_4"`
	// RouterRecall is recall@topK of the merged sharded rankings
	// (adaptive planner per shard) against the single-node exhaustive
	// ground truth; gated at exactly 1.0.
	RouterRecall float64 `json:"router_recall"`
	// Replica convergence cell.
	ReplicaDocs              int   `json:"replica_docs"`
	ReplicaKillLimitBytes    int64 `json:"replica_kill_limit_bytes"`
	ReplicaAppliedBeforeKill int   `json:"replica_applied_before_kill"`
	ReplicaResyncs           int   `json:"replica_resyncs"`
	// ReplicaConverged is the gated cell: after the mid-stream kill,
	// the primary writing on, a directory reopen and a resumed stream,
	// the follower's ranking keys equal the primary's byte for byte.
	ReplicaConverged bool `json:"replica_converged"`
}

// clusterShards partitions the corpus across n registries (shared
// matcher) by ring ownership of the schema name — the same placement
// cupidrouter computes.
func clusterShards(m *core.Matcher, corpus []*model.Schema, n int) ([]*registry.Registry, error) {
	ring, err := cluster.NewRing(n, 0)
	if err != nil {
		return nil, err
	}
	shards := make([]*registry.Registry, n)
	for i := range shards {
		shards[i] = registry.NewWithMatcher(m)
	}
	return shards, registerCorpus(corpus, func(s *model.Schema) *registry.Registry { return shards[ring.Owner(s.Name)] })
}

// scatterGather runs one probe through every shard and returns the
// per-shard rankings.
func scatterGather(shards []*registry.Registry, p *core.Prepared, opt registry.PlanOptions) ([][]registry.Ranked, error) {
	parts := make([][]registry.Ranked, len(shards))
	for i, sh := range shards {
		var err error
		if parts[i], err = retrieval(sh, clusterTopK, opt)(p); err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// criticalPathNs times every probe's per-shard subqueries (each one a
// timeArms arm, so each keeps its fastest repetition) and returns the
// sweep's aggregate critical path: per probe, the slowest shard's
// subquery — the fan-out's wall clock on a core-per-shard cluster.
func criticalPathNs(shards []*registry.Registry, probes []*core.Prepared, opt registry.PlanOptions) (int64, error) {
	var arms []func() error
	var sink [][]registry.Ranked
	for i := range probes {
		for _, sh := range shards {
			arms = append(arms, sweepArm(probes[i:i+1], retrieval(sh, clusterTopK, opt), &sink))
		}
	}
	t, err := timeArms(arms...)
	if err != nil {
		return 0, err
	}
	var total int64
	for i := 0; i < len(t); i += len(shards) {
		var critical int64
		for _, sub := range t[i : i+len(shards)] {
			critical = max(critical, sub.ns)
		}
		total += critical
	}
	return total, nil
}

// runClusterScaling measures the scaling cells and the router-recall
// cell over one shared corpus.
func runClusterScaling(point *ClusterPoint) error {
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		return err
	}
	corpus := familyCorpus(clusterCorpusSize, 17)
	probes, err := prepareProbes(m, familyProbes(1234))
	if err != nil {
		return err
	}
	point.Corpus = len(corpus)
	point.TopK = clusterTopK
	point.Probes = len(probes)

	fmt.Println("cupidbench: scatter-gather scaling (FamilyCorpus, exhaustive path, critical-path timing)")
	fmt.Println("  shards  docs min/max  sweep ms  agg matches/sec")
	var truth [][]registry.Ranked // single-node exhaustive ground truth
	var mergedAuto [][]registry.Ranked
	for _, n := range clusterShardCounts {
		shards, err := clusterShards(m, corpus, n)
		if err != nil {
			return err
		}
		minDocs, maxDocs := shards[0].Len(), shards[0].Len()
		for _, sh := range shards[1:] {
			minDocs, maxDocs = min(minDocs, sh.Len()), max(maxDocs, sh.Len())
		}
		sweepNs, err := criticalPathNs(shards, probes, exactPlan)
		if err != nil {
			return err
		}
		// Rankings, outside the timed loops (deterministic paths).
		if n == 1 {
			if err := sweepArm(probes, retrieval(shards[0], clusterTopK, exactPlan), &truth)(); err != nil {
				return err
			}
		}
		if n == clusterShardCounts[len(clusterShardCounts)-1] {
			for _, p := range probes {
				parts, err := scatterGather(shards, p, registry.DefaultPlanOptions())
				if err != nil {
					return err
				}
				mergedAuto = append(mergedAuto, serve.Trim(serve.Merge(parts...), "", "", clusterTopK))
			}
		}
		pt := ClusterScalePoint{
			Shards:        n,
			MinDocs:       minDocs,
			MaxDocs:       maxDocs,
			SweepNs:       sweepNs,
			MatchesPerSec: float64(len(probes)) / (float64(sweepNs) / 1e9),
		}
		point.Scaling = append(point.Scaling, pt)
		fmt.Printf("  %6d  %6d/%-6d  %8.1f  %15.1f\n",
			n, minDocs, maxDocs, float64(sweepNs)/1e6, pt.MatchesPerSec)
	}
	first, last := point.Scaling[0], point.Scaling[len(point.Scaling)-1]
	point.Speedup1To4 = last.MatchesPerSec / first.MatchesPerSec
	point.RouterRecall = meanRecall(truth, mergedAuto)
	fmt.Printf("  1->%d shard speedup %.2fx, merged recall@%d %.3f\n",
		last.Shards, point.Speedup1To4, clusterTopK, point.RouterRecall)

	if point.Speedup1To4 < clusterScalingGate {
		return fmt.Errorf("cluster gate: aggregate matches/sec scales %.2fx from 1 to %d shards, want >= %.1fx (sharding stopped shrinking per-query work)",
			point.Speedup1To4, last.Shards, clusterScalingGate)
	}
	if point.RouterRecall != 1.0 {
		return fmt.Errorf("cluster gate: merged scatter-gather recall@%d = %.3f, want exactly 1.0 (the merge or the per-shard planner lost results the exact scan finds)",
			clusterTopK, point.RouterRecall)
	}
	return nil
}

// runClusterReplica measures the replica-convergence cell.
func runClusterReplica(point *ClusterPoint) (err error) {
	cfg := core.DefaultConfig()
	priDir, folDir, cleanup, err := replicaDirs()
	if err != nil {
		return err
	}
	defer cleanup()

	pri, err := openDataDir(cfg, priDir)
	if err != nil {
		return err
	}
	defer pri.Close()

	// The corpus is registered from serialized source bytes so both
	// sides parse identical documents (identical fingerprints by
	// construction; see Persistent.Register's normalization caveat).
	corpus := familyCorpus(60, 17)
	point.ReplicaDocs = len(corpus)
	point.ReplicaKillLimitBytes = clusterReplicaKillLimit
	registerSource := func(p *registry.Persistent, s *model.Schema) error {
		content, err := s.MarshalJSON()
		if err != nil {
			return err
		}
		_, _, err = p.RegisterSource(s.Name, "json", content)
		return err
	}
	preKill := corpus[:40]
	postKill := corpus[40:]
	for _, s := range preKill {
		if err := registerSource(pri, s); err != nil {
			return err
		}
	}

	fol, err := openDataDir(cfg, folDir)
	if err != nil {
		return err
	}
	defer func() {
		if fol != nil {
			fol.Close()
		}
	}()
	state := &registry.ReplState{}
	applied := 0
	checkpoint, _ := shipStream(pri, fol, state, registry.ReplPos{}, clusterReplicaKillLimit, nil,
		func(registry.ReplPos) { applied++ })
	point.ReplicaAppliedBeforeKill = applied
	fmt.Printf("cupidbench: replica killed after <= %d stream bytes (%d of %d records applied, checkpoint %s)\n",
		clusterReplicaKillLimit, applied, len(preKill), checkpoint)

	// The follower is dead; the primary keeps mutating.
	if err := fol.Close(); err != nil {
		return err
	}
	fol = nil
	for _, s := range postKill {
		if err := registerSource(pri, s); err != nil {
			return err
		}
	}
	if _, err := pri.Remove(preKill[0].Name); err != nil {
		return err
	}

	// Restart: reopen the directory (a fresh matcher, as a new process
	// would have) and resume the stream from the checkpoint.
	fol, err = openDataDir(cfg, folDir)
	if err != nil {
		return err
	}
	target := pri.ReplicationPos()
	if _, err := shipStream(pri, fol, state, checkpoint, 0, &target, nil); err != nil {
		return err
	}
	st := state.Status()
	point.ReplicaResyncs = st.Resyncs

	// Byte-identical rankings: each side prepares the same probes with
	// its own matcher and the ranking keys must match exactly.
	priProbes, err := prepareProbes(pri.Matcher(), familyProbes(1234))
	if err != nil {
		return err
	}
	folProbes, err := prepareProbes(fol.Matcher(), familyProbes(1234))
	if err != nil {
		return err
	}
	converged := pri.Len() == fol.Len()
	for i := range priProbes {
		pRanked, _, err := pri.Match(priProbes[i], clusterTopK, exactPlan)
		if err != nil {
			return err
		}
		fRanked, _, err := fol.Match(folProbes[i], clusterTopK, exactPlan)
		if err != nil {
			return err
		}
		if pk, fk := rankingKey(serve.ResultsOf(pRanked)), rankingKey(serve.ResultsOf(fRanked)); pk != fk {
			converged = false
			fmt.Printf("  probe %d diverged:\n    primary  %s\n    follower %s\n", i, pk, fk)
		}
	}
	point.ReplicaConverged = converged
	fmt.Printf("  restarted replica at %s (resyncs %d): %d docs vs primary %d, rankings byte-identical: %v\n",
		st.Pos, st.Resyncs, fol.Len(), pri.Len(), converged)
	if !converged {
		return fmt.Errorf("cluster gate: killed-and-restarted replica did not converge to the primary's rankings")
	}
	return nil
}

// runCluster executes the cluster workload, enforces its gates, and
// merges the result into the report at outPath.
func runCluster(outPath string) error {
	point := &ClusterPoint{}
	if err := runClusterScaling(point); err != nil {
		return err
	}
	if err := runClusterReplica(point); err != nil {
		return err
	}

	return writeReport(outPath, func(r *BenchReport) { r.Cluster = point })
}
