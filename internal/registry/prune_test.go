package registry

import (
	"testing"

	"repro/internal/par"
	"repro/internal/workloads"
)

// TestPruneOptionsLimit pins the undegraded candidate budget (the policy
// PruneOptions.Limit once spelled): max(floor, ceil(f·n), topK) with
// f = 1/4 on the pruned path and 1/8 on the indexed path and a floor of
// 16. The exact scan is budgeted the whole repository and ignores topK.
func TestPruneOptionsLimit(t *testing.T) {
	checkBudget(t, []budgetCase{
		{StrategyPruned, 200, 10, false, 50},    // fraction dominates
		{StrategyPruned, 1000, 0, false, 250},   // fraction of a big repository
		{StrategyIndexed, 2000, 10, false, 250}, // the indexed path's eighth
		{StrategyPruned, 40, 5, false, 16},      // floor dominates
		{StrategyIndexed, 10, 0, false, 16},     // floor above n: callers scan everything
		{StrategyPruned, 200, 80, false, 80},    // topK lifts the budget
		{StrategyExact, 200, 10, false, 200},    // exact: the whole repository
		{StrategyExact, 5, 10, false, 5},        // exact ignores topK
	})
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
	prunedCorpus(t, r, 8) // below the budget floor: pruning must not engage
	probe, err := r.Matcher().Prepare(workloads.Figure2().Source)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.MatchAll(probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := r.Match(probe, 0, PlanOptions{Force: StrategyPruned})
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
	pruned, _, err := r.Match(probe, topK, PlanOptions{Force: StrategyPruned})
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
	seq, _, err := r.Match(probe, 8, PlanOptions{Force: StrategyPruned})
	par.SetMaxWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	par.SetMaxWorkers(8)
	defer par.SetMaxWorkers(prev)
	parR, _, err := r.Match(probe, 8, PlanOptions{Force: StrategyPruned})
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
