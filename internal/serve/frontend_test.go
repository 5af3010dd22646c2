package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/workloads"
)

func testRegistry(t *testing.T, n int) *registry.Registry {
	t.Helper()
	r, err := registry.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: n / workloads.NumFamilies(), Seed: 11})
	for _, s := range corpus {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func prepProbe(t *testing.T, r *registry.Registry, family int, seed int64) *core.Prepared {
	t.Helper()
	p, err := r.Matcher().Prepare(workloads.FamilyProbe(family, seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func rankKey(ranked []registry.Ranked) string {
	out := ""
	for _, rk := range ranked {
		out += fmt.Sprintf("%s:%.17g;", rk.Entry.Name, rk.Score)
	}
	return out
}

// calmOptions sizes a frontend so admission and degradation never
// interfere with what a test is actually asserting.
func calmOptions(cacheCap int) Options {
	return Options{
		Read:          PoolOptions{Slots: 4, Queue: 64, MaxWait: time.Minute},
		Write:         PoolOptions{Slots: 2, Queue: 64, MaxWait: time.Minute},
		CacheCapacity: cacheCap,
		DegradeAt:     -1,
	}
}

// TestMatchBatchModesIdenticalToRegistry asserts the frontend adds no
// ranking drift: every retrieval mode returns bit-identical rankings to
// the registry's own forced plan, with the budget reported.
func TestMatchBatchModesIdenticalToRegistry(t *testing.T) {
	r := testRegistry(t, 40)
	f := NewFrontend(r, calmOptions(0))
	probe := prepProbe(t, r, 1, 3)
	ctx := context.Background()
	prune := registry.PruneOptions{Fraction: 0.25, MinCandidates: 4}
	index := registry.PruneOptions{Fraction: 0.25, MinCandidates: 4}

	res, err := f.MatchBatch(ctx, probe, MatchSpec{Retrieval: registry.StrategyExact, TopK: 0})
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := r.MatchContext(ctx, probe, 0, registry.PlanOptions{Force: registry.StrategyExact})
	if err != nil {
		t.Fatal(err)
	}
	if rankKey(res.Ranked) != rankKey(direct) {
		t.Error("exact mode: frontend ranking differs from MatchAll")
	}
	if res.Stats.CandidateBudget != r.Len() || res.Stats.Degraded {
		t.Errorf("exact stats = %+v; want full budget, not degraded", res.Stats)
	}

	res, err = f.MatchBatch(ctx, probe, MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 5, Index: index})
	if err != nil {
		t.Fatal(err)
	}
	directRanked, directStats, err := r.MatchContext(ctx, probe, 5, registry.PlanOptions{Force: registry.StrategyIndexed, Index: index})
	if err != nil {
		t.Fatal(err)
	}
	if rankKey(res.Ranked) != rankKey(directRanked) {
		t.Error("indexed mode: frontend ranking differs from the forced indexed plan")
	}
	if res.Stats.CandidateBudget != directStats.CandidateBudget || res.Stats.CandidatesScored != directStats.CandidatesScored {
		t.Errorf("indexed stats = %+v, want %+v", res.Stats, directStats)
	}

	res, err = f.MatchBatch(ctx, probe, MatchSpec{Retrieval: registry.StrategyPruned, TopK: 5, Prune: prune})
	if err != nil {
		t.Fatal(err)
	}
	directTop, _, err := r.MatchContext(ctx, probe, 5, registry.PlanOptions{Force: registry.StrategyPruned, Prune: prune})
	if err != nil {
		t.Fatal(err)
	}
	if rankKey(res.Ranked) != rankKey(directTop) {
		t.Error("pruned mode: frontend ranking differs from the forced pruned plan")
	}
	if want := prune.Limit(r.Len(), 5); res.Stats.CandidateBudget != want {
		t.Errorf("pruned CandidateBudget = %d, want %d", res.Stats.CandidateBudget, want)
	}
}

// TestMatchBatchCacheHitIsIdentical asserts a cached reply is
// bit-identical to the fresh one that populated it.
func TestMatchBatchCacheHitIsIdentical(t *testing.T) {
	r := testRegistry(t, 40)
	f := NewFrontend(r, calmOptions(32))
	probe := prepProbe(t, r, 2, 3)
	spec := MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 5, Index: registry.PruneOptions{Fraction: 0.25, MinCandidates: 4}}
	ctx := context.Background()

	cold, err := f.MatchBatch(ctx, probe, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first MatchBatch reported Cached")
	}
	warm, err := f.MatchBatch(ctx, probe, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second identical MatchBatch was not served from cache")
	}
	if rankKey(cold.Ranked) != rankKey(warm.Ranked) || cold.Stats != warm.Stats {
		t.Error("cached reply differs from the fresh one")
	}
	// A different spec is a different key.
	other, err := f.MatchBatch(ctx, probe, MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 3, Index: spec.Index})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("different TopK reused the cached entry; key must cover the spec")
	}
}

// TestInvalidationProperty is the staleness property test: across a
// randomized (seeded) sequence of register/replace/remove/match
// operations — Invalidate after each committed mutation, exactly as
// cupidd's handlers do — every cached batch reply must equal a fresh
// registry computation. A single stale hit fails it.
func TestInvalidationProperty(t *testing.T) {
	r := testRegistry(t, 24)
	f := NewFrontend(r, calmOptions(64))
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	// Reserve pool of unregistered schemas for registers and replaces.
	reserve := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 6, Seed: 99})
	names := make([]string, 0, 64)
	for _, e := range r.List() {
		names = append(names, e.Name)
	}
	probes := []*core.Prepared{prepProbe(t, r, 0, 5), prepProbe(t, r, 2, 5), prepProbe(t, r, 4, 5)}
	spec := MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 5, Index: registry.PruneOptions{Fraction: 0.25, MinCandidates: 4}}

	for i := 0; i < 150; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // match (checked against a fresh computation)
			probe := probes[rng.Intn(len(probes))]
			res, err := f.MatchBatch(ctx, probe, spec)
			if err != nil {
				t.Fatalf("op %d: MatchBatch: %v", i, err)
			}
			fresh, _, err := r.MatchContext(ctx, probe, spec.TopK, registry.PlanOptions{Force: registry.StrategyIndexed, Index: spec.Index})
			if err != nil {
				t.Fatalf("op %d: fresh indexed match: %v", i, err)
			}
			if rankKey(res.Ranked) != rankKey(fresh) {
				t.Fatalf("op %d: stale cache hit (cached=%t):\n  served %s\n  fresh  %s",
					i, res.Cached, rankKey(res.Ranked), rankKey(fresh))
			}
		case op < 8: // register a new schema, or replace an existing name
			s := reserve[rng.Intn(len(reserve))]
			name := s.Name
			if len(names) > 0 && rng.Intn(2) == 0 {
				name = names[rng.Intn(len(names))] // replace: new content, old name
			} else {
				names = append(names, name)
			}
			if _, _, err := r.Register(name, s); err != nil {
				t.Fatalf("op %d: Register(%s): %v", i, name, err)
			}
			f.Invalidate()
		default: // remove
			if len(names) == 0 {
				continue
			}
			j := rng.Intn(len(names))
			r.Remove(names[j])
			names = append(names[:j], names[j+1:]...)
			f.Invalidate()
		}
	}
	if st := f.Stats(); st.Cache.Hits == 0 {
		t.Error("property test never exercised a cache hit; weaken the mutation rate")
	}
}

// TestInvalidationUnderConcurrentMutation is the racy companion of the
// property test: mutators and matchers run concurrently (the race
// detector owns the memory-safety half; the sequential property test owns
// the staleness half).
func TestInvalidationUnderConcurrentMutation(t *testing.T) {
	r := testRegistry(t, 24)
	f := NewFrontend(r, calmOptions(64))
	ctx := context.Background()
	probe := prepProbe(t, r, 1, 5)
	spec := MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 5, Index: registry.PruneOptions{Fraction: 0.25, MinCandidates: 4}}
	reserve := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 4, Seed: 42})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			s := reserve[i%len(reserve)]
			if _, _, err := r.Register(s.Name, s); err != nil {
				t.Errorf("Register: %v", err)
				return
			}
			f.Invalidate()
			r.Remove(s.Name)
			f.Invalidate()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if _, err := f.MatchBatch(ctx, probe, spec); err != nil {
				t.Errorf("MatchBatch: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestDegradedShrinksBudgetAndStaysDeterministic forces saturation-driven
// degradation and asserts (a) the reply is flagged and carries the shrunk
// budget, (b) it is bit-identical to an explicit run under that same
// shrunk budget (degradation changes the budget, never the scoring), and
// (c) degraded replies are not cached.
func TestDegradedShrinksBudgetAndStaysDeterministic(t *testing.T) {
	r := testRegistry(t, 40)
	// One slot + DegradeAt 0.5: any admitted request sees saturation >= 1
	// from its own occupancy, so every match degrades.
	f := NewFrontend(r, Options{
		Read:          PoolOptions{Slots: 1, Queue: 8, MaxWait: time.Minute},
		CacheCapacity: 16,
		DegradeAt:     0.5,
	})
	probe := prepProbe(t, r, 3, 3)
	index := registry.PruneOptions{Fraction: 0.5, MinCandidates: 4}
	spec := MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 3, Index: index}
	ctx := context.Background()

	res, err := f.MatchBatch(ctx, probe, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded {
		t.Fatal("saturated MatchBatch did not degrade")
	}
	shrunk := shrinkBudget(index)
	if want := shrunk.Limit(r.Len(), spec.TopK); res.Stats.CandidateBudget != want {
		t.Errorf("degraded CandidateBudget = %d, want shrunk limit %d", res.Stats.CandidateBudget, want)
	}
	if full := index.Limit(r.Len(), spec.TopK); res.Stats.CandidateBudget >= full {
		t.Errorf("degraded budget %d not below full budget %d", res.Stats.CandidateBudget, full)
	}
	direct, _, err := r.MatchContext(ctx, probe, spec.TopK, registry.PlanOptions{Force: registry.StrategyIndexed, Index: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	if rankKey(res.Ranked) != rankKey(direct) {
		t.Error("degraded ranking differs from an explicit run under the shrunk budget")
	}
	again, err := f.MatchBatch(ctx, probe, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Error("degraded reply was cached; un-saturated callers would inherit the shrunk budget")
	}
	if f.Stats().DegradedMatches == 0 {
		t.Error("DegradedMatches counter not incremented")
	}
}

func TestMatchPairCachedAndIdentical(t *testing.T) {
	r := testRegistry(t, 20)
	f := NewFrontend(r, calmOptions(16))
	a := prepProbe(t, r, 0, 1)
	b := prepProbe(t, r, 0, 2)
	ctx := context.Background()

	cold, shared, err := f.MatchPair(ctx, a, b)
	if err != nil || shared {
		t.Fatalf("cold MatchPair = shared %t, err %v", shared, err)
	}
	direct, err := r.Matcher().MatchPrepared(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Mapping.Leaves) != len(direct.Mapping.Leaves) {
		t.Error("frontend pair match differs from MatchPrepared")
	}
	warm, shared, err := f.MatchPair(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !shared || warm != cold {
		t.Errorf("warm MatchPair = shared %t, same pointer %t; want a cache hit returning the shared result", shared, warm == cold)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	r := testRegistry(t, 20)
	f := NewFrontend(r, calmOptions(8))
	probe := prepProbe(t, r, 1, 1)
	ctx := context.Background()
	f.BeginDrain()
	if !f.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	if _, err := f.MatchBatch(ctx, probe, MatchSpec{Retrieval: registry.StrategyExact}); !errors.Is(err, ErrDraining) {
		t.Errorf("MatchBatch while draining = %v, want ErrDraining", err)
	}
	if _, _, err := f.MatchPair(ctx, probe, probe); !errors.Is(err, ErrDraining) {
		t.Errorf("MatchPair while draining = %v, want ErrDraining", err)
	}
	if _, err := f.AcquireWrite(ctx); !errors.Is(err, ErrDraining) {
		t.Errorf("AcquireWrite while draining = %v, want ErrDraining", err)
	}
}

func TestMatchDeadlineExpires(t *testing.T) {
	r := testRegistry(t, 20)
	f := NewFrontend(r, Options{
		Read:          PoolOptions{Slots: 2, Queue: 8, MaxWait: time.Minute},
		MatchDeadline: time.Nanosecond,
		DegradeAt:     -1,
	})
	probe := prepProbe(t, r, 2, 1)
	if _, err := f.MatchBatch(context.Background(), probe, MatchSpec{Retrieval: registry.StrategyExact}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("MatchBatch under 1ns deadline = %v, want context.DeadlineExceeded", err)
	}
}

// TestWritePoolIndependentOfReadPool asserts a saturated read pool cannot
// starve write admissions.
func TestWritePoolIndependentOfReadPool(t *testing.T) {
	r := testRegistry(t, 20)
	f := NewFrontend(r, Options{
		Read:  PoolOptions{Slots: 1, Queue: 1, MaxWait: time.Minute},
		Write: PoolOptions{Slots: 1, Queue: 4, MaxWait: time.Minute},
	})
	// Saturate the read pool directly.
	relRead, err := f.ReadPool().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer relRead()
	relWrite, err := f.AcquireWrite(context.Background())
	if err != nil {
		t.Fatalf("AcquireWrite with saturated read pool = %v; write path must be independent", err)
	}
	relWrite()
}
