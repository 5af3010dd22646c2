package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
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

func rankKey(ranked []BatchResult) string {
	out := ""
	for _, rk := range ranked {
		out += fmt.Sprintf("%s:%.17g;", rk.Name, rk.Score)
	}
	return out
}

// samePairs reports the first difference between two rendered element
// lists: paths and bit-identical wsim, ssim and lsim.
func samePairs(want, got []Pair) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d elements, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Source != w.Source || g.Target != w.Target ||
			math.Float64bits(g.WSim) != math.Float64bits(w.WSim) ||
			math.Float64bits(g.SSim) != math.Float64bits(w.SSim) ||
			math.Float64bits(g.LSim) != math.Float64bits(w.LSim) {
			return fmt.Errorf("element %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// samePairMatch reports the first difference between a mapping and its
// rendering: schema names, then every leaf and non-leaf element.
func samePairMatch(want *mapping.Mapping, got *PairMatch) error {
	if want.SourceSchema != got.SourceSchema || want.TargetSchema != got.TargetSchema {
		return fmt.Errorf("schemas %s→%s, want %s→%s", got.SourceSchema, got.TargetSchema, want.SourceSchema, want.TargetSchema)
	}
	if err := samePairs(PairsOf(want.Leaves), got.Leaves); err != nil {
		return fmt.Errorf("leaf %v", err)
	}
	if err := samePairs(PairsOf(want.NonLeaves), got.NonLeaves); err != nil {
		return fmt.Errorf("non-leaf %v", err)
	}
	return nil
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

	res, err := f.MatchBatch(ctx, PreparedSource(probe), MatchSpec{Retrieval: registry.StrategyExact, TopK: 0})
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := r.MatchContext(ctx, probe, 0, registry.PlanOptions{Force: registry.StrategyExact})
	if err != nil {
		t.Fatal(err)
	}
	if rankKey(res.Results) != rankKey(ResultsOf(direct)) {
		t.Error("exact mode: frontend ranking differs from MatchAll")
	}
	if res.Stats.CandidateBudget != r.Len() || res.Stats.Degraded {
		t.Errorf("exact stats = %+v; want full budget, not degraded", res.Stats)
	}

	res, err = f.MatchBatch(ctx, PreparedSource(probe), MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	directRanked, directStats, err := r.MatchContext(ctx, probe, 5, registry.PlanOptions{Force: registry.StrategyIndexed})
	if err != nil {
		t.Fatal(err)
	}
	if rankKey(res.Results) != rankKey(ResultsOf(directRanked)) {
		t.Error("indexed mode: frontend ranking differs from the forced indexed plan")
	}
	if res.Stats.CandidateBudget != directStats.CandidateBudget || res.Stats.CandidatesScored != directStats.CandidatesScored {
		t.Errorf("indexed stats = %+v, want %+v", res.Stats, directStats)
	}
	if !res.Stats.Indexed || res.Stats.CandidateBudget >= r.Len() {
		t.Errorf("indexed stats = %+v; the index must engage over %d entries", res.Stats, r.Len())
	}

	res, err = f.MatchBatch(ctx, PreparedSource(probe), MatchSpec{Retrieval: registry.StrategyPruned, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	directTop, _, err := r.MatchContext(ctx, probe, 5, registry.PlanOptions{Force: registry.StrategyPruned})
	if err != nil {
		t.Fatal(err)
	}
	if rankKey(res.Results) != rankKey(ResultsOf(directTop)) {
		t.Error("pruned mode: frontend ranking differs from the forced pruned plan")
	}
	// max(16, ceil(40/4), 5): the floor, below the corpus.
	if res.Stats.CandidateBudget != 16 || res.Stats.CandidatesMatched != 16 {
		t.Errorf("pruned stats = %+v, want budget and matched 16", res.Stats)
	}
}

// TestMatchBatchCacheHitIsIdentical asserts a cached reply is
// bit-identical to the fresh one that populated it.
func TestMatchBatchCacheHitIsIdentical(t *testing.T) {
	r := testRegistry(t, 40)
	f := NewFrontend(r, calmOptions(32))
	probe := prepProbe(t, r, 2, 3)
	spec := MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 5}
	ctx := context.Background()

	cold, err := f.MatchBatch(ctx, PreparedSource(probe), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first MatchBatch reported Cached")
	}
	if !cold.Stats.Indexed || cold.Stats.CandidateBudget >= r.Len() {
		t.Fatalf("stats = %+v; the index must engage over %d entries", cold.Stats, r.Len())
	}
	warm, err := f.MatchBatch(ctx, PreparedSource(probe), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second identical MatchBatch was not served from cache")
	}
	if rankKey(cold.Results) != rankKey(warm.Results) || cold.Stats != warm.Stats {
		t.Error("cached reply differs from the fresh one")
	}
	direct, _, err := r.MatchContext(ctx, probe, spec.TopK, registry.PlanOptions{Force: spec.Retrieval})
	if err != nil {
		t.Fatal(err)
	}
	if rankKey(cold.Results) != rankKey(ResultsOf(direct)) {
		t.Fatal("frontend ranking differs from the registry's forced indexed plan")
	}
	for i, rk := range direct {
		want := PairsOf(rk.Result.Mapping.Leaves)
		if err := samePairs(want, cold.Results[i].Leaves); err != nil {
			t.Errorf("entry %d (%s): cold mapping: %v", i, rk.Entry.Name, err)
		}
		if err := samePairs(want, warm.Results[i].Leaves); err != nil {
			t.Errorf("entry %d (%s): cached mapping: %v", i, rk.Entry.Name, err)
		}
	}
	// A different spec is a different key.
	other, err := f.MatchBatch(ctx, PreparedSource(probe), MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 3})
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
	r := testRegistry(t, 40)
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
	spec := MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 5}

	for i := 0; i < 150; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // match (checked against a fresh computation)
			probe := probes[rng.Intn(len(probes))]
			res, err := f.MatchBatch(ctx, PreparedSource(probe), spec)
			if err != nil {
				t.Fatalf("op %d: MatchBatch: %v", i, err)
			}
			fresh, st, err := r.MatchContext(ctx, probe, spec.TopK, registry.PlanOptions{Force: registry.StrategyIndexed})
			if err != nil {
				t.Fatalf("op %d: fresh indexed match: %v", i, err)
			}
			if !st.Indexed {
				t.Fatalf("op %d: the index did not engage over %d entries (stats %+v)", i, r.Len(), st)
			}
			if rankKey(res.Results) != rankKey(ResultsOf(fresh)) {
				t.Fatalf("op %d: stale cache hit (cached=%t):\n  served %s\n  fresh  %s",
					i, res.Cached, rankKey(res.Results), rankKey(ResultsOf(fresh)))
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
	spec := MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 5}
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
			if _, err := f.MatchBatch(ctx, PreparedSource(probe), spec); err != nil {
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
	spec := MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 3}
	ctx := context.Background()

	res, err := f.MatchBatch(ctx, PreparedSource(probe), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded {
		t.Fatal("saturated MatchBatch did not degrade")
	}
	// At 40 entries the full budget is the floor, max(16, ceil(40/8), 3) =
	// 16; degraded halves the floor and the fraction: max(8, ceil(40/16), 3).
	if res.Stats.CandidateBudget != 8 || !res.Stats.Indexed {
		t.Errorf("degraded stats = %+v, want an indexed run under the shrunk budget 8", res.Stats)
	}
	direct, _, err := r.MatchContext(ctx, probe, spec.TopK, registry.PlanOptions{Force: registry.StrategyIndexed, Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	if rankKey(res.Results) != rankKey(ResultsOf(direct)) {
		t.Error("degraded ranking differs from an explicit run under the shrunk budget")
	}
	again, err := f.MatchBatch(ctx, PreparedSource(probe), spec)
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

// TestMatchPairCachedAndIdentical asserts the cold and the cached pair
// match are both bit-identical, element by element, to a direct
// MatchPrepared's mapping.
func TestMatchPairCachedAndIdentical(t *testing.T) {
	r := testRegistry(t, 20)
	f := NewFrontend(r, calmOptions(16))
	a := prepProbe(t, r, 0, 1)
	b := prepProbe(t, r, 0, 2)
	ctx := context.Background()

	cold, shared, err := f.MatchPair(ctx, PreparedSource(a), PreparedSource(b))
	if err != nil || shared {
		t.Fatalf("cold MatchPair = shared %t, err %v", shared, err)
	}
	direct, err := r.Matcher().MatchPrepared(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Mapping.Leaves) == 0 || len(direct.Mapping.NonLeaves) == 0 {
		t.Fatalf("direct mapping has %d leaf and %d non-leaf elements; the pair must exercise both",
			len(direct.Mapping.Leaves), len(direct.Mapping.NonLeaves))
	}
	if err := samePairMatch(direct.Mapping, cold); err != nil {
		t.Errorf("cold frontend pair match differs from MatchPrepared: %v", err)
	}
	warm, shared, err := f.MatchPair(ctx, PreparedSource(a), PreparedSource(b))
	if err != nil {
		t.Fatal(err)
	}
	if !shared || warm != cold {
		t.Errorf("warm MatchPair = shared %t, same pointer %t; want a cache hit returning the shared pair match", shared, warm == cold)
	}
	if err := samePairMatch(direct.Mapping, warm); err != nil {
		t.Errorf("cached pair match differs from MatchPrepared: %v", err)
	}
}

// TestCacheRetainsMappingsNotMatrices pins what a cache entry costs: the
// heap a full cache retains per pair-large-shaped entry (289 elements,
// 256 leaves per side) must stay under 1 MB. A cached pair match retains
// about 0.04 MB (this test keeps both schemas alive itself, so it does
// not see what an entry pins of them; TestCachedInlinePairRetainsOnlyItsReply
// does); a cached core.Result, with its three 289×289 similarity
// matrices, retains about 2.2 MB, so an entry that keeps the matrices
// fails here.
func TestCacheRetainsMappingsNotMatrices(t *testing.T) {
	if testing.Short() {
		t.Skip("matches 20 large schema pairs twice")
	}
	const pairs = 20
	r, err := registry.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := r.Matcher()
	src := make([]*core.Prepared, pairs)
	dst := make([]*core.Prepared, pairs)
	for i := range src {
		w := workloads.Synthetic(workloads.SyntheticSpec{
			Tables: 16, ColsPerTable: 16, Depth: 2, Rename: 0.3, Renest: 0.2, Seed: int64(i + 1),
		})
		if src[i], err = m.Prepare(w.Source); err != nil {
			t.Fatal(err)
		}
		if dst[i], err = m.Prepare(w.Target); err != nil {
			t.Fatal(err)
		}
		// Warm the matcher: the linguistic memo and the pooled scratch
		// grow on first use, and that growth is not the cache's.
		if _, err := m.MatchPrepared(src[i], dst[i]); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFrontend(r, calmOptions(pairs))
	heap := func() uint64 {
		// Two collections: the first moves sync.Pool contents to the
		// victim cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := range src {
		if _, _, err := f.MatchPair(context.Background(), PreparedSource(src[i]), PreparedSource(dst[i])); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if n := f.Stats().Cache.Len; n != pairs {
		t.Fatalf("cache holds %d entries, want %d", n, pairs)
	}
	perEntry := (float64(after) - float64(before)) / pairs / (1 << 20)
	t.Logf("retained heap per cached pair: %.3f MB", perEntry)
	if perEntry >= 1 {
		t.Errorf("a cached pair retains %.2f MB of heap, want < 1 MB: the cache keeps more than the mapping", perEntry)
	}
	runtime.KeepAlive(f)
	runtime.KeepAlive(src)
	runtime.KeepAlive(dst)
}

// TestCachedInlinePairRetainsOnlyItsReply pins what a cached inline pair
// (a /match of two uploaded schemas) keeps once the request is over. Each
// pair-large-shaped pair (289 elements, 256 leaves per side) is parsed
// and prepared afresh, cached through MatchPair and then dropped, as
// cupidd does with an inline body; the matcher is warmed on the same
// names first, so the name table does not grow. An entry that holds the
// rendered reply retains about 0.04 MB; one whose elements point into the
// schema trees keeps both parsed schemas and both trees reachable, about
// 0.2 MB, and fails the 0.08 MB bound.
func TestCachedInlinePairRetainsOnlyItsReply(t *testing.T) {
	if testing.Short() {
		t.Skip("matches 20 large schema pairs twice")
	}
	const pairs, maxMB = 20, 0.08
	r, err := registry.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := r.Matcher()
	prepare := func(i int) (src, dst *core.Prepared) {
		w := workloads.Synthetic(workloads.SyntheticSpec{
			Tables: 16, ColsPerTable: 16, Depth: 2, Rename: 0.3, Renest: 0.2, Seed: int64(i + 1),
		})
		if src, err = m.Prepare(w.Source); err != nil {
			t.Fatal(err)
		}
		if dst, err = m.Prepare(w.Target); err != nil {
			t.Fatal(err)
		}
		return src, dst
	}
	for i := 0; i < pairs; i++ {
		if _, err := m.MatchPrepared(prepare(i)); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFrontend(r, calmOptions(pairs))
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < pairs; i++ {
		src, dst := prepare(i)
		if _, _, err := f.MatchPair(context.Background(), PreparedSource(src), PreparedSource(dst)); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if n := f.Stats().Cache.Len; n != pairs {
		t.Fatalf("cache holds %d entries, want %d", n, pairs)
	}
	perEntry := (float64(after) - float64(before)) / pairs / (1 << 20)
	t.Logf("retained heap per cached inline pair: %.3f MB", perEntry)
	if perEntry > maxMB {
		t.Errorf("a cached inline pair retains %.3f MB of heap, want <= %.2f MB: the entry keeps more than its reply", perEntry, maxMB)
	}
	runtime.KeepAlive(f)
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
	if _, err := f.MatchBatch(ctx, PreparedSource(probe), MatchSpec{Retrieval: registry.StrategyExact}); !errors.Is(err, ErrDraining) {
		t.Errorf("MatchBatch while draining = %v, want ErrDraining", err)
	}
	if _, _, err := f.MatchPair(ctx, PreparedSource(probe), PreparedSource(probe)); !errors.Is(err, ErrDraining) {
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
	if _, err := f.MatchBatch(context.Background(), PreparedSource(probe), MatchSpec{Retrieval: registry.StrategyExact}); !errors.Is(err, context.DeadlineExceeded) {
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

// TestMatchPairMappingSurvivesScratchReuse: a /match pair's tables come
// from the pooled kernel scratch, which the next pair reuses. The first
// pair's cached mapping must encode to the same bytes after a second,
// different pair has been matched, and must still be what MatchPrepared
// computes.
func TestMatchPairMappingSurvivesScratchReuse(t *testing.T) {
	r := testRegistry(t, 20)
	f := NewFrontend(r, calmOptions(16))
	a, b := prepProbe(t, r, 0, 1), prepProbe(t, r, 0, 2)
	c, d := prepProbe(t, r, 1, 3), prepProbe(t, r, 2, 4)
	ctx := context.Background()
	first, _, err := f.MatchPair(ctx, PreparedSource(a), PreparedSource(b))
	if err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.MatchPair(ctx, PreparedSource(c), PreparedSource(d)); err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("matching a second pair changed the first pair's mapping")
	}
	direct, err := r.Matcher().MatchPrepared(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := samePairMatch(direct.Mapping, first); err != nil {
		t.Errorf("pooled pair mapping differs from MatchPrepared: %v", err)
	}
}

// BenchmarkRerankAfterWrite measures what a write costs the rankings
// that follow it: 200 FamilyCorpus entries, 32 cached top-10 probes, and
// per operation one replacing write, then all 32 rankings asked again
// (each recomputed, since the write made it stale).
func BenchmarkRerankAfterWrite(b *testing.B) {
	r, err := registry.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 20, Seed: 11})
	for _, s := range corpus {
		if _, _, err := r.Register(s.Name, s); err != nil {
			b.Fatal(err)
		}
	}
	reserve := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 4, Seed: 99})
	probes := make([]Source, 32)
	for i := range probes {
		p, err := r.Matcher().Prepare(workloads.FamilyProbe(i%workloads.NumFamilies(), int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		probes[i] = PreparedSource(p)
	}
	f := NewFrontend(r, calmOptions(1024))
	ctx := context.Background()
	spec := MatchSpec{TopK: 10}
	round := func() {
		for _, src := range probes {
			if _, err := f.MatchBatch(ctx, src, spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Write i replaces entry i mod 200 with a reserve document other
		// than the one the entry's previous write left.
		name := corpus[i%len(corpus)].Name
		doc := reserve[(i+i/len(corpus))%len(reserve)]
		if _, created, err := r.Register(name, doc); err != nil || !created {
			b.Fatalf("replacing %s: created %t, err %v", name, created, err)
		}
		f.Invalidate()
		round()
	}
	b.StopTimer()
	st := f.Stats()
	b.ReportMetric(float64(st.PairsReused)/float64(st.PairsReused+st.PairsMatched), "reused/pair")
}
