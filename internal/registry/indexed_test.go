package registry

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/workloads"
)

func TestMatchIndexedSmallRepositoryEqualsFullScan(t *testing.T) {
	r := newTestRegistry(t)
	prunedCorpus(t, r, 8) // below the budget floor: retrieval must not engage
	probe, err := r.Matcher().Prepare(workloads.Figure2().Source)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.MatchAll(probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	indexed, st, err := r.Match(probe, 0, PlanOptions{Force: StrategyIndexed})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, full, indexed)
	if st.Indexed {
		t.Error("small repository should fall back to the exact scan")
	}
	if st.CandidatesScored != 8 || st.CandidatesMatched != 8 {
		t.Errorf("fallback stats = %+v, want 8 scored and matched", st)
	}
}

// TestMatchIndexedRecallOnFamilyCorpus: the forced indexed path's top 10
// recalls the exact scan's at >= 0.98. At n = 200 its budget is 25
// candidates, an eighth of the corpus above the floor.
func TestMatchIndexedRecallOnFamilyCorpus(t *testing.T) {
	const n, topK = 200, 10
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
	indexed, st, err := r.Match(probe, topK, PlanOptions{Force: StrategyIndexed})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Indexed {
		t.Fatalf("repository of %d must use the index (stats %+v)", n, st)
	}
	// Every survivor must at least share a token; on this corpus common
	// stems (date, name, ...) cross families, so scored may approach n —
	// the saving is the O(1) accumulator affinity and the tree-match cap,
	// not the survivor count.
	if st.CandidatesScored == 0 || st.CandidatesScored > n {
		t.Errorf("index scored %d of %d entries", st.CandidatesScored, n)
	}
	if len(indexed) != topK {
		t.Fatalf("indexed ranking has %d results, want %d", len(indexed), topK)
	}
	inTop := map[string]bool{}
	for _, rk := range full {
		inTop[rk.Entry.Name] = true
	}
	recall := 0
	for _, rk := range indexed {
		if inTop[rk.Entry.Name] {
			recall++
		}
	}
	if got := float64(recall) / float64(topK); got < 0.98 {
		t.Errorf("recall@%d vs the exact scan = %.2f, want >= 0.98", topK, got)
	}
}

// TestMatchIndexedEqualsFromScratchAfterInterleaving is the registry-level
// incrementality property: after any interleaving of Register (inserts and
// replaces) and Remove, indexed retrieval on the incrementally maintained
// registry equals retrieval on a registry built from scratch over the
// surviving entries. The slots outnumber the budget floor, so the index
// engages.
func TestMatchIndexedEqualsFromScratchAfterInterleaving(t *testing.T) {
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 8, Seed: 3})
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3; trial++ {
		r := newTestRegistry(t)
		type liveEntry struct{ idx int }
		live := map[string]liveEntry{}
		names := make([]string, 48)
		for i := range names {
			names[i] = fmt.Sprintf("slot%d", i)
		}
		for op := 0; op < 200; op++ {
			name := names[rng.Intn(len(names))]
			if rng.Intn(3) < 2 { // register: fresh insert or content replace
				ci := rng.Intn(len(corpus))
				if _, _, err := r.Register(name, corpus[ci]); err != nil {
					t.Fatal(err)
				}
				live[name] = liveEntry{idx: ci}
			} else {
				want := false
				if _, ok := live[name]; ok {
					want = true
				}
				if got := r.Remove(name); got != want {
					t.Fatalf("trial %d op %d: Remove(%s) = %v, want %v", trial, op, name, got, want)
				}
				delete(live, name)
			}
		}

		fresh := newTestRegistry(t)
		for name, le := range live {
			if _, _, err := fresh.Register(name, corpus[le.idx]); err != nil {
				t.Fatal(err)
			}
		}

		for probeFam := 0; probeFam < 3; probeFam++ {
			probe, err := r.Matcher().Prepare(workloads.FamilyProbe(probeFam, int64(trial)))
			if err != nil {
				t.Fatal(err)
			}
			freshProbe, err := fresh.Matcher().Prepare(workloads.FamilyProbe(probeFam, int64(trial)))
			if err != nil {
				t.Fatal(err)
			}
			inc, incSt, err := r.Match(probe, 5, PlanOptions{Force: StrategyIndexed})
			if err != nil {
				t.Fatal(err)
			}
			scr, scrSt, err := fresh.Match(freshProbe, 5, PlanOptions{Force: StrategyIndexed})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRanking(t, scr, inc)
			if !incSt.Indexed || incSt.CandidateBudget >= r.Len() {
				t.Errorf("trial %d probe %d: the index did not engage over %d entries (stats %+v)", trial, probeFam, r.Len(), incSt)
			}
			if incSt.CandidatesScored != scrSt.CandidatesScored {
				t.Errorf("trial %d probe %d: scored %d vs from-scratch %d",
					trial, probeFam, incSt.CandidatesScored, scrSt.CandidatesScored)
			}
		}
	}
}

// TestMatchIndexedRebuiltOnRecovery asserts the inverted index — which is
// never persisted — is rebuilt deterministically when a Persistent
// registry restores its snapshot: indexed retrieval after a restart is
// identical to before.
func TestMatchIndexedRebuiltOnRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() *Persistent {
		t.Helper()
		m, err := core.NewMatcher(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		p, warns, err := OpenPersistentOptions(dir, m, PersistOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(warns) != 0 {
			t.Fatalf("unexpected recovery warnings: %v", warns)
		}
		return p
	}

	p := open()
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 4, Seed: 5})
	for _, s := range corpus {
		if _, _, err := p.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	probe, err := p.Matcher().Prepare(workloads.FamilyProbe(1, 13))
	if err != nil {
		t.Fatal(err)
	}
	before, beforeSt, err := p.Match(probe, 5, PlanOptions{Force: StrategyIndexed})
	if err != nil {
		t.Fatal(err)
	}
	if !beforeSt.Indexed {
		t.Fatalf("corpus of %d must use the index (stats %+v)", len(corpus), beforeSt)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := open()
	defer p2.Close()
	if p2.Len() != len(corpus) {
		t.Fatalf("restored %d entries, want %d", p2.Len(), len(corpus))
	}
	probe2, err := p2.Matcher().Prepare(workloads.FamilyProbe(1, 13))
	if err != nil {
		t.Fatal(err)
	}
	after, afterSt, err := p2.Match(probe2, 5, PlanOptions{Force: StrategyIndexed})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, before, after)
	if beforeSt != afterSt {
		t.Errorf("retrieval stats changed across restart: %+v vs %+v", beforeSt, afterSt)
	}
}

func TestMatchIndexedDeterministicAcrossWorkerCounts(t *testing.T) {
	r := newTestRegistry(t)
	prunedCorpus(t, r, 48)
	probe, err := r.Matcher().Prepare(workloads.FamilyProbe(1, 9))
	if err != nil {
		t.Fatal(err)
	}
	prev := par.SetMaxWorkers(1)
	seq, seqSt, err := r.Match(probe, 8, PlanOptions{Force: StrategyIndexed})
	par.SetMaxWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	par.SetMaxWorkers(8)
	defer par.SetMaxWorkers(prev)
	conc, concSt, err := r.Match(probe, 8, PlanOptions{Force: StrategyIndexed})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, seq, conc)
	if seqSt != concSt {
		t.Errorf("stats differ across worker counts: %+v vs %+v", seqSt, concSt)
	}
}

// TestPruneOptionsLimitTinyRepositories pins the budget's edge cases: the
// fraction is applied with a ceiling, never integer division, so it cannot
// collapse to zero candidates for tiny n; an empty or negative repository
// is budgeted 0; a negative topK lifts nothing.
func TestPruneOptionsLimitTinyRepositories(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for _, s := range []Strategy{StrategyPruned, StrategyIndexed} {
			for _, degraded := range []bool{false, true} {
				if got := budget(s, n, 0, degraded); got < 1 {
					t.Errorf("budget(%s, n=%d, degraded=%v) = %d; the candidate floor collapsed", s, n, degraded, got)
				}
			}
		}
	}
	checkBudget(t, []budgetCase{
		{StrategyPruned, 201, 0, false, 51},   // ceil(50.25)
		{StrategyIndexed, 130, 0, false, 17},  // ceil(16.25), not the floor
		{StrategyIndexed, 130, 0, true, 9},    // degraded ceiling: ceil(8.125)
		{StrategyIndexed, 200, -5, false, 25}, // a negative topK lifts nothing
		{StrategyPruned, 0, 10, false, 0},     // empty repository
		{StrategyIndexed, -3, 10, false, 0},   // negative n
		{StrategyIndexed, 0, 10, true, 0},     // degraded empty repository
		{StrategyExact, 0, 10, false, 0},
	})
}
