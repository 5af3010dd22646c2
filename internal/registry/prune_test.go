package registry

import (
	"testing"

	"repro/internal/par"
	"repro/internal/workloads"
)

func TestPruneOptionsLimit(t *testing.T) {
	opt := PruneOptions{Fraction: 0.25, MinCandidates: 16}
	cases := []struct {
		n, topK, want int
	}{
		{200, 10, 50},  // fraction dominates
		{40, 5, 16},    // floor dominates
		{200, 80, 80},  // topK dominates
		{10, 0, 16},    // floor above n: the pruned strategy scans everything
		{1000, 0, 250}, // fraction of a big repository
	}
	for _, c := range cases {
		if got := opt.Limit(c.n, c.topK); got != c.want {
			t.Errorf("limit(n=%d, topK=%d) = %d, want %d", c.n, c.topK, got, c.want)
		}
	}
}

// prunedCorpus registers a family-structured repository (domain-clustered
// vocabularies) so the signature's token-overlap coordinate separates the
// probe's domain from the rest — the workload pruning is built for.
func prunedCorpus(t *testing.T, r *Registry, n int) {
	t.Helper()
	perFam := (n + workloads.NumFamilies() - 1) / workloads.NumFamilies()
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: perFam, Seed: 1})
	for _, s := range corpus[:n] {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMatchTopSmallRepositoryEqualsFullScan(t *testing.T) {
	r := newTestRegistry(t)
	prunedCorpus(t, r, 8) // below MinCandidates: pruning must not engage
	probe, err := r.Matcher().Prepare(workloads.Figure2().Source)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.MatchAll(probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := r.Match(probe, 0, PlanOptions{Force: StrategyPruned, Prune: DefaultPruneOptions()})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, full, pruned)
}

func TestMatchTopRecallOnDiverseCorpus(t *testing.T) {
	const n, topK = 64, 5
	r := newTestRegistry(t)
	prunedCorpus(t, r, n)
	probe, err := r.Matcher().Prepare(workloads.FamilyProbe(2, 77))
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.MatchAll(probe, topK)
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := r.Match(probe, topK, PlanOptions{Force: StrategyPruned, Prune: DefaultPruneOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != topK {
		t.Fatalf("pruned ranking has %d results, want %d", len(pruned), topK)
	}
	assertSameRanking(t, full, pruned)
}

// TestMatchTopDeterministicAcrossWorkerCounts asserts the pruned ranking is
// identical under sequential and parallel execution (the affinity pre-rank
// and the full match both fan over the pool).
func TestMatchTopDeterministicAcrossWorkerCounts(t *testing.T) {
	r := newTestRegistry(t)
	prunedCorpus(t, r, 48)
	probe, err := r.Matcher().Prepare(workloads.Figure2().Source)
	if err != nil {
		t.Fatal(err)
	}
	prev := par.SetMaxWorkers(1)
	seq, _, err := r.Match(probe, 8, PlanOptions{Force: StrategyPruned, Prune: DefaultPruneOptions()})
	par.SetMaxWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	par.SetMaxWorkers(8)
	defer par.SetMaxWorkers(prev)
	parR, _, err := r.Match(probe, 8, PlanOptions{Force: StrategyPruned, Prune: DefaultPruneOptions()})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, seq, parR)
}

func assertSameRanking(t *testing.T, want, got []Ranked) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("ranking lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Entry.Name != got[i].Entry.Name || want[i].Score != got[i].Score {
			t.Errorf("rank %d: (%s, %v) vs (%s, %v)",
				i, want[i].Entry.Name, want[i].Score, got[i].Entry.Name, got[i].Score)
		}
	}
}
