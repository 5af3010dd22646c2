package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// sharded builds one unsharded registry plus n shard registries over the
// same FamilyCorpus, every registry sharing one matcher (prepared probes
// are matcher-bound). assign picks the shard for schema i.
func sharded(t *testing.T, n int, assign func(i int, name string) int) (whole *registry.Registry, shards []*registry.Registry, m *core.Matcher) {
	t.Helper()
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	whole = registry.NewWithMatcher(m)
	shards = make([]*registry.Registry, n)
	for i := range shards {
		shards[i] = registry.NewWithMatcher(m)
	}
	for i, s := range workloads.FamilyCorpus(workloads.FamilyCorpusSpec{Families: 5, PerFamily: 8, Seed: 11}) {
		if _, _, err := whole.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
		if _, _, err := shards[assign(i, s.Name)].Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	return whole, shards, m
}

// scatterExact runs the forced-exact batch match on every shard
// concurrently (the -race run exercises real parallel scatter) and
// returns the per-shard rankings and stats.
func scatterExact(t *testing.T, shards []*registry.Registry, probe *core.Prepared, topK int) ([][]registry.Ranked, []registry.RetrievalStats) {
	t.Helper()
	rankings := make([][]registry.Ranked, len(shards))
	stats := make([]registry.RetrievalStats, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rankings[i], stats[i], errs[i] = sh.MatchContext(
				context.Background(), probe, topK,
				registry.PlanOptions{Force: registry.StrategyExact})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	return rankings, stats
}

// TestMergedScatterGatherMatchesSingleNode is the sharding property test:
// for random shardings of a FamilyCorpus (and the ring's own placement),
// the merged scatter-gather top-K is element-for-element identical to the
// single-node MatchContext ranking on the unsharded corpus — same names,
// same fingerprints, same scores, same order — and MergeStats reproduces
// the single node's RetrievalStats under the documented aggregation
// rules. Runs the scatter on real goroutines so `go test -race` checks
// the concurrent merge path.
func TestMergedScatterGatherMatchesSingleNode(t *testing.T) {
	ring, err := NewRing(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	assigns := map[string]func(i int, name string) int{
		"ring": func(_ int, name string) int { return ring.Owner(name) },
	}
	for _, seed := range []int64{1, 2, 42} {
		rng := rand.New(rand.NewSource(seed))
		assigns[fmt.Sprintf("random-%d", seed)] = func(_ int, _ string) int { return rng.Intn(3) }
	}
	for label, assign := range assigns {
		t.Run(label, func(t *testing.T) {
			whole, shards, m := sharded(t, 3, assign)
			for probeFam := 0; probeFam < 3; probeFam++ {
				probe, err := m.Prepare(workloads.FamilyProbe(probeFam, 99))
				if err != nil {
					t.Fatal(err)
				}
				for _, topK := range []int{0, 1, 10} {
					// The single-node oracle: one exact-forced ranking of the
					// unsharded corpus.
					want, wantStats, err := whole.MatchContext(
						context.Background(), probe, topK,
						registry.PlanOptions{Force: registry.StrategyExact})
					if err != nil {
						t.Fatal(err)
					}
					// Per-shard top-K suffices for the global top-K: any
					// globally top-K entry is within its own shard's top-K.
					rankings, stats := scatterExact(t, shards, probe, topK)
					got := serve.Trim(serve.Merge(rankings...), "", "", topK)
					if len(got) != len(want) {
						t.Fatalf("probe fam%d topK=%d: merged %d entries, single node %d",
							probeFam, topK, len(got), len(want))
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.Entry.Name != w.Entry.Name || g.Entry.Fingerprint != w.Entry.Fingerprint || g.Score != w.Score {
							t.Fatalf("probe fam%d topK=%d rank %d: merged (%s %s %.9f) != single (%s %s %.9f)",
								probeFam, topK, i,
								g.Entry.Name, g.Entry.Fingerprint, g.Score,
								w.Entry.Name, w.Entry.Fingerprint, w.Score)
						}
					}
					merged := MergeStats(stats)
					if merged.Mixed {
						t.Fatalf("probe fam%d topK=%d: uniform exact scatter reported mixed strategies", probeFam, topK)
					}
					if merged.RetrievalStats != wantStats {
						t.Fatalf("probe fam%d topK=%d: merged stats %+v != single-node stats %+v",
							probeFam, topK, merged.RetrievalStats, wantStats)
					}
				}
			}
		})
	}
}

// TestMergeRankedTieBreak pins the global order on a synthetic tie: equal
// scores break by name ascending, equal names by fingerprint ascending.
func TestMergeRankedTieBreak(t *testing.T) {
	mk := func(name, fp string, score float64) registry.Ranked {
		return registry.Ranked{Entry: &registry.Entry{Name: name, Fingerprint: fp}, Score: score}
	}
	got := serve.Merge([][]registry.Ranked{
		{mk("b", "f1", 0.5), mk("a", "f9", 0.25)},
		{mk("a", "f2", 0.5), mk("a", "f1", 0.5)},
	}...)
	want := []registry.Ranked{
		mk("a", "f1", 0.5), mk("a", "f2", 0.5), mk("b", "f1", 0.5), mk("a", "f9", 0.25),
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Entry.Name != want[i].Entry.Name || got[i].Entry.Fingerprint != want[i].Entry.Fingerprint {
			t.Fatalf("rank %d: got (%s,%s), want (%s,%s)", i,
				got[i].Entry.Name, got[i].Entry.Fingerprint,
				want[i].Entry.Name, want[i].Entry.Fingerprint)
		}
	}
}

// TestMergeStatsRules pins each documented aggregation rule on synthetic
// inputs, independent of any real retrieval.
func TestMergeStatsRules(t *testing.T) {
	a := registry.RetrievalStats{
		Strategy: registry.StrategyIndexed, Planned: true, Indexed: true,
		Corpus: 10, CandidatesScored: 4, CandidatesMatched: 2, CandidateBudget: 3,
		ProbeTokens: 7, TokensIndexed: 5, TokensCommon: 1, PostingsKept: 9,
	}
	b := registry.RetrievalStats{
		Strategy: registry.StrategyPruned, Planned: true, Degraded: true,
		Corpus: 20, CandidatesScored: 20, CandidatesMatched: 5, CandidateBudget: 5,
		ProbeTokens: 7, TokensIndexed: 6, TokensCommon: 2, PostingsKept: 11,
	}
	m := MergeStats([]registry.RetrievalStats{a, b})
	if !m.Mixed || m.StrategyLabel() != "mixed" {
		t.Errorf("indexed+pruned should merge as mixed, got %q (mixed=%v)", m.StrategyLabel(), m.Mixed)
	}
	if m.Corpus != 30 || m.CandidatesScored != 24 || m.CandidatesMatched != 7 || m.CandidateBudget != 8 ||
		m.TokensIndexed != 11 || m.TokensCommon != 3 || m.PostingsKept != 20 {
		t.Errorf("summed counters wrong: %+v", m.RetrievalStats)
	}
	if m.ProbeTokens != 7 {
		t.Errorf("ProbeTokens should take the max (7), got %d", m.ProbeTokens)
	}
	if !m.Degraded || !m.Indexed || !m.Planned {
		t.Errorf("flag rules wrong: degraded=%v indexed=%v planned=%v", m.Degraded, m.Indexed, m.Planned)
	}
	// One unplanned shard makes the merge unplanned.
	b.Planned = false
	if m := MergeStats([]registry.RetrievalStats{a, b}); m.Planned {
		t.Error("Planned must AND over shards")
	}
	// Uniform strategies stay unmixed.
	if m := MergeStats([]registry.RetrievalStats{a, a}); m.Mixed || m.StrategyLabel() != "indexed" {
		t.Errorf("uniform merge mislabeled: %q (mixed=%v)", m.StrategyLabel(), m.Mixed)
	}
	// Empty input is the zero aggregate.
	if m := MergeStats(nil); m.RetrievalStats != (registry.RetrievalStats{}) || m.Mixed {
		t.Errorf("empty merge not zero: %+v", m)
	}
}
