package registry

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/workloads"
)

func TestStrategyStringParseRoundTrip(t *testing.T) {
	for _, s := range []Strategy{StrategyAuto, StrategyExact, StrategyPruned, StrategyIndexed} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if got, err := ParseStrategy("index"); err != nil || got != StrategyIndexed {
		t.Errorf("ParseStrategy(index) = %v, %v; want the indexed strategy", got, err)
	}
	if _, err := ParseStrategy("fuzzy"); err == nil {
		t.Error("ParseStrategy(fuzzy) should fail")
	}
	if got := Strategy(250).String(); got != "strategy(250)" {
		t.Errorf("invalid strategy String() = %q", got)
	}
}

func TestPruneOptionsHalve(t *testing.T) {
	cases := []struct{ in, want PruneOptions }{
		{PruneOptions{Fraction: 0.25, MinCandidates: 16}, PruneOptions{Fraction: 0.125, MinCandidates: 8}},
		{PruneOptions{Fraction: 0.125, MinCandidates: 1}, PruneOptions{Fraction: 0.0625, MinCandidates: 1}},
		// Full-scan configs (fraction outside (0,1]) have no budget to halve.
		{PruneOptions{}, PruneOptions{}},
		{PruneOptions{Fraction: 2, MinCandidates: 16}, PruneOptions{Fraction: 2, MinCandidates: 16}},
	}
	for _, tc := range cases {
		if got := tc.in.Halve(); got != tc.want {
			t.Errorf("%+v.Halve() = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// unseenProbe is a schema whose every token is absent from the family
// corpus vocabularies: the index is blind to it.
func unseenProbe() *model.Schema {
	s := model.New("Zyzzyva")
	tbl := s.AddChild(s.Root(), "Quokka", model.KindTable)
	s.AddChild(tbl, "Axolotl", model.KindColumn)
	s.AddChild(tbl, "Wombat", model.KindColumn)
	s.Name = "probe-unseen"
	return s
}

// TestPlanAutoSelection pins the planner's decision rules on corpora
// where each branch is forced: empty and tiny repositories degenerate to
// the exact scan, index-blind probes route to the pruned scan at the
// pruned budget, and selective probes run indexed with the adaptive
// budget capped by the static policy.
func TestPlanAutoSelection(t *testing.T) {
	const topK = 10
	opts := DefaultPlanOptions()

	t.Run("empty repository", func(t *testing.T) {
		r := newTestRegistry(t)
		src := mustPrepare(t, r, workloads.Figure2().Source)
		p := r.Plan(src, topK, opts)
		if p.Strategy != StrategyExact || !p.Planned || p.Budget != 0 {
			t.Errorf("plan on empty repository = %+v, want planned exact with zero budget", p)
		}
	})

	t.Run("tiny repository", func(t *testing.T) {
		r := newTestRegistry(t)
		prunedCorpus(t, r, 8)
		src := mustPrepare(t, r, workloads.FamilyProbe(1, 5))
		p := r.Plan(src, topK, opts)
		if p.Strategy != StrategyExact || !p.Planned || p.Budget != 8 {
			t.Errorf("plan on 8-entry repository = %+v, want planned exact with budget 8", p)
		}
		if p.Corpus != 8 {
			t.Errorf("plan saw corpus %d, want 8", p.Corpus)
		}
	})

	r := newTestRegistry(t)
	prunedCorpus(t, r, 200)

	t.Run("index-blind probe", func(t *testing.T) {
		src := mustPrepare(t, r, unseenProbe())
		p := r.Plan(src, topK, opts)
		if p.TokensIndexed != 0 {
			t.Fatalf("probe unexpectedly shares tokens with the corpus: %+v", p)
		}
		want := opts.Prune.Limit(200, topK)
		if p.Strategy != StrategyPruned || !p.Planned || p.Budget != want {
			t.Errorf("plan = %+v, want planned pruned with budget %d", p, want)
		}
	})

	t.Run("stop-heavy probe", func(t *testing.T) {
		// Below the common cutoff nothing is stop-common, but every token
		// the stop-heavy probe shares with the corpus is near-corpus-wide:
		// the selectivity rule must abandon the index.
		src := mustPrepare(t, r, workloads.StopHeavyProbe(7))
		p := r.Plan(src, topK, opts)
		if p.TokensIndexed == 0 || p.PostingsKept == 0 {
			t.Fatalf("stop-heavy probe should share kept tokens below the cutoff: %+v", p)
		}
		if p.MinKeptDF < opts.Index.Limit(200, topK) {
			t.Fatalf("stop-heavy probe's rarest kept token df %d fits the static budget", p.MinKeptDF)
		}
		want := opts.Prune.Limit(200, topK)
		if p.Strategy != StrategyPruned || !p.Planned || p.Budget != want {
			t.Errorf("plan = %+v, want planned pruned with budget %d", p, want)
		}
	})

	t.Run("selective probe", func(t *testing.T) {
		src := mustPrepare(t, r, workloads.RareTokenProbe(3, 99))
		p := r.Plan(src, topK, opts)
		if p.Strategy != StrategyIndexed || !p.Planned {
			t.Fatalf("plan = %+v, want planned indexed", p)
		}
		if p.TokensIndexed == 0 || p.PostingsKept == 0 || p.MaxKeptDF == 0 {
			t.Fatalf("plan stats empty for a family probe: %+v", p)
		}
		// The budget is the adaptive cluster-sized one, capped at the
		// static policy limit and floored at MinCandidates and topK.
		want := opts.Index.Limit(200, topK)
		if adaptive := adaptiveBudget(p.MaxKeptDF, opts.Index, topK); adaptive < want {
			want = adaptive
		}
		if p.Budget != want {
			t.Errorf("plan budget = %d, want %d (MaxKeptDF %d)", p.Budget, want, p.MaxKeptDF)
		}
		if static := opts.Index.Limit(200, topK); p.Budget > static {
			t.Errorf("adaptive budget %d exceeds the static policy %d", p.Budget, static)
		}
	})
}

// TestAdaptiveBudget pins the cluster-plus-headroom sizing and its floors.
func TestAdaptiveBudget(t *testing.T) {
	opt := PruneOptions{Fraction: 0.125, MinCandidates: 16}
	cases := []struct{ maxDF, topK, want int }{
		{100, 10, 125}, // cluster + 25% headroom
		{4, 10, 16},    // floored at MinCandidates
		{4, 40, 40},    // floored at topK
		{0, 0, 16},     // degenerate: the MinCandidates floor still applies
	}
	for _, tc := range cases {
		if got := adaptiveBudget(tc.maxDF, opt, tc.topK); got != tc.want {
			t.Errorf("adaptiveBudget(%d, topK %d) = %d, want %d", tc.maxDF, tc.topK, got, tc.want)
		}
	}
	if got := adaptiveBudget(4, PruneOptions{}, 0); got != 5 {
		t.Errorf("adaptiveBudget with zero floor = %d, want 5", got)
	}
}

// forcedOracle rebuilds, outside the planner, the candidate set a forced
// strategy must tree-match and the stats it must report. Pruned takes the
// top Prune.Limit(n, topK) entries by signature affinity, ties broken by
// name; indexed asks the inverted index for Index.Limit(n, topK)
// candidates. Both fall back to every entry when the budget covers the
// corpus, indexed also for a token-less probe. Degraded halves the budget
// policies first; the exact scan has no budget to halve.
func forcedOracle(r *Registry, src *core.Prepared, topK int, opt PlanOptions) ([]*Entry, RetrievalStats) {
	if opt.Degraded {
		opt.Prune, opt.Index = opt.Prune.Halve(), opt.Index.Halve()
	}
	entries := r.List()
	n := len(entries)
	st := RetrievalStats{Strategy: opt.Force, Degraded: opt.Degraded, Corpus: n, CandidatesScored: n, CandidatesMatched: n}
	sig := src.Signature()
	switch opt.Force {
	case StrategyPruned:
		st.CandidateBudget = opt.Prune.Limit(n, topK)
		if st.CandidateBudget >= n {
			return entries, st
		}
		sort.SliceStable(entries, func(i, j int) bool {
			ai, aj := sig.Affinity(entries[i].Prepared.Signature()), sig.Affinity(entries[j].Prepared.Signature())
			if ai != aj {
				return ai > aj
			}
			return entries[i].Name < entries[j].Name
		})
		st.CandidatesMatched = st.CandidateBudget
		return entries[:st.CandidateBudget], st
	case StrategyIndexed:
		st.CandidateBudget = opt.Index.Limit(n, topK)
		if st.CandidateBudget >= n || len(sig.Tokens) == 0 {
			return entries, st
		}
		cands, ist := r.idx.TopK(sig, st.CandidateBudget)
		out := make([]*Entry, len(cands))
		for i, c := range cands {
			out[i], _ = r.Get(c.Key)
		}
		st.CandidatesScored, st.CandidatesMatched, st.Indexed = ist.Scored, len(out), true
		return out, st
	default:
		st.Degraded, st.CandidateBudget = false, n
		return entries, st
	}
}

// oracleRank ranks candidates the way MatchAll ranks a repository: the
// full MatchPrepared score, descending, ties broken by name, truncated to
// topK (<= 0 keeps all).
func oracleRank(t *testing.T, r *Registry, src *core.Prepared, cands []*Entry, topK int) []Ranked {
	t.Helper()
	out := make([]Ranked, len(cands))
	for i, e := range cands {
		res, err := r.Matcher().MatchPrepared(src, e.Prepared)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = Ranked{Entry: e, Result: res, Score: Score(res)}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entry.Name < out[j].Entry.Name
	})
	if topK > 0 && topK < len(out) {
		out = out[:topK]
	}
	return out
}

// assertSameFullRanking is assertSameRanking plus the materialized
// results: every returned entry carries a full result whose leaf and
// non-leaf mappings equal the oracle's, and scores agree to the last bit.
func assertSameFullRanking(t *testing.T, want, got []Ranked) {
	t.Helper()
	assertSameRanking(t, want, got)
	for i := range want {
		if w, g := fmt.Sprintf("%.17g", want[i].Score), fmt.Sprintf("%.17g", got[i].Score); w != g {
			t.Errorf("rank %d (%s): score %s, oracle %s", i, got[i].Entry.Name, g, w)
		}
		if got[i].Result == nil {
			t.Fatalf("rank %d (%s): returned without a result", i, got[i].Entry.Name)
		}
		if !slices.Equal(want[i].Result.Mapping.Leaves, got[i].Result.Mapping.Leaves) ||
			!slices.Equal(want[i].Result.Mapping.NonLeaves, got[i].Result.Mapping.NonLeaves) {
			t.Errorf("rank %d (%s): mapping differs from the full match", i, got[i].Entry.Name)
		}
	}
}

// TestForcedPlansMatchOracle: Match with a forced strategy must return
// exactly the oracle's ranking of the oracle's candidate set, with the
// oracle's stats and full results for the returned entries, bit for bit —
// for every strategy, on probes spanning the planner's decision space,
// under full and degraded (halved) budgets, for a top-10 (score-only
// ranking, then materialization) and an unbounded ranking, on a corpus
// large enough to prune and one small enough to fall back. A 1:1
// configuration, whose leaf score needs the full pipeline per candidate,
// runs the same checks.
func TestForcedPlansMatchOracle(t *testing.T) {
	probes := []*model.Schema{
		workloads.FamilyProbe(2, 7),
		workloads.RareTokenProbe(4, 11),
		workloads.StopHeavyProbe(13),
		unseenProbe(),
	}
	oneToOne := core.DefaultConfig()
	oneToOne.Mapping.Cardinality = mapping.OneToOne
	cases := []struct {
		cfg    core.Config
		n      int
		probes []*model.Schema
	}{
		{core.DefaultConfig(), 120, probes},
		{core.DefaultConfig(), 12, probes},
		{oneToOne, 120, probes[:2]},
	}
	for _, tc := range cases {
		r, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		prunedCorpus(t, r, tc.n)
		for _, ps := range tc.probes {
			src := mustPrepare(t, r, ps)
			for _, topK := range []int{10, 0} {
				// The oracle's ranking rule is MatchAll's.
				all, err := r.MatchAll(src, topK)
				if err != nil {
					t.Fatal(err)
				}
				assertSameFullRanking(t, oracleRank(t, r, src, r.List(), topK), all)
				for _, force := range []Strategy{StrategyExact, StrategyPruned, StrategyIndexed} {
					for _, degraded := range []bool{false, true} {
						opt := DefaultPlanOptions()
						opt.Force, opt.Degraded = force, degraded
						cands, wantSt := forcedOracle(r, src, topK, opt)
						got, st, err := r.Match(src, topK, opt)
						if err != nil {
							t.Fatal(err)
						}
						assertSameFullRanking(t, oracleRank(t, r, src, cands, topK), got)
						if st != wantSt {
							t.Errorf("n=%d %s topK=%d force=%s degraded=%v: stats %+v, oracle %+v",
								tc.n, ps.Name, topK, force, degraded, st, wantSt)
						}
					}
				}
			}
		}
	}
}

// TestMatchDegradedHalvesBudgets: a degraded planned/forced run must rank
// exactly like the same strategy under pre-halved budget policies — the
// serving layer's load shedding is a planner input, not a separate path —
// and the stats must say so. A forced exact scan has no budget to shed,
// so it never reports degraded.
func TestMatchDegradedHalvesBudgets(t *testing.T) {
	const topK = 10
	r := newTestRegistry(t)
	prunedCorpus(t, r, 120)
	src := mustPrepare(t, r, workloads.FamilyProbe(3, 21))

	iopt := DefaultIndexOptions()
	want, wantSt, err := r.Match(src, topK, PlanOptions{Force: StrategyIndexed, Index: iopt.Halve()})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := r.Match(src, topK, PlanOptions{Force: StrategyIndexed, Index: iopt, Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, want, got)
	if !st.Degraded {
		t.Error("degraded indexed run did not report Degraded")
	}
	wantSt.Degraded = true
	if st != wantSt {
		t.Errorf("degraded stats = %+v, want %+v", st, wantSt)
	}

	popt := DefaultPruneOptions()
	want, _, err = r.Match(src, topK, PlanOptions{Force: StrategyPruned, Prune: popt.Halve()})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err = r.Match(src, topK, PlanOptions{Force: StrategyPruned, Prune: popt, Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, want, got)
	if !st.Degraded {
		t.Error("degraded pruned run did not report Degraded")
	}

	if _, st, err = r.Match(src, topK, PlanOptions{Force: StrategyExact, Degraded: true}); err != nil {
		t.Fatal(err)
	} else if st.Degraded {
		t.Error("a forced exact scan has no budget; it must not report Degraded")
	}
}

// TestPlannedRecallAtLeastBestStatic is the planner's quality property:
// on a family corpus with probes spanning the frequency spectrum, the
// planned top-10 must recall (against the exhaustive ground truth) at
// least as well as every static policy on every probe.
func TestPlannedRecallAtLeastBestStatic(t *testing.T) {
	const n, topK = 300, 10
	r := newTestRegistry(t)
	prunedCorpus(t, r, n)
	probes := []*model.Schema{
		workloads.FamilyProbe(0, 3),
		workloads.FamilyProbe(4, 8),
		workloads.FamilyProbe(7, 15),
		workloads.RareTokenProbe(1, 31),
		workloads.RareTokenProbe(6, 32),
		workloads.StopHeavyProbe(9),
	}
	recall := func(truth, got []Ranked) int {
		in := make(map[string]bool, len(truth))
		for _, rk := range truth {
			in[rk.Entry.Name] = true
		}
		hits := 0
		for _, rk := range got {
			if in[rk.Entry.Name] {
				hits++
			}
		}
		return hits
	}
	for _, ps := range probes {
		src := mustPrepare(t, r, ps)
		truth, err := r.MatchAll(src, topK)
		if err != nil {
			t.Fatal(err)
		}
		pruned, _, err := r.Match(src, topK, PlanOptions{Force: StrategyPruned, Prune: DefaultPruneOptions()})
		if err != nil {
			t.Fatal(err)
		}
		indexed, _, err := r.Match(src, topK, PlanOptions{Force: StrategyIndexed, Index: DefaultIndexOptions()})
		if err != nil {
			t.Fatal(err)
		}
		planned, st, err := r.Match(src, topK, DefaultPlanOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !st.Planned || st.Strategy == StrategyAuto {
			t.Fatalf("%s: planned run reported %+v", ps.Name, st)
		}
		got := recall(truth, planned)
		for name, static := range map[string][]Ranked{"pruned": pruned, "indexed": indexed} {
			if want := recall(truth, static); got < want {
				t.Errorf("%s: planned recall@%d = %d < static %s recall %d (plan %+v)",
					ps.Name, topK, got, name, want, st)
			}
		}
	}
}

// TestPlanAllocationFree pins the warm-path contract: planning runs on
// every request, so with the probe signature pre-warmed it must not
// allocate at all.
func TestPlanAllocationFree(t *testing.T) {
	r := newTestRegistry(t)
	prunedCorpus(t, r, 100)
	src := mustPrepare(t, r, workloads.FamilyProbe(2, 44))
	src.Signature() // warm the cached signature outside the measured loop
	opts := DefaultPlanOptions()
	if allocs := testing.AllocsPerRun(200, func() { r.Plan(src, 10, opts) }); allocs > 0 {
		t.Errorf("Plan allocates %.1f objects per call, want 0", allocs)
	}
}

// TestMatchContextCancelled: the planned entry point must propagate a
// cancelled context from every strategy's scoring loop.
func TestMatchContextCancelled(t *testing.T) {
	r := newTestRegistry(t)
	prunedCorpus(t, r, 40)
	src := mustPrepare(t, r, workloads.FamilyProbe(1, 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, force := range []Strategy{StrategyAuto, StrategyExact, StrategyPruned, StrategyIndexed} {
		opt := DefaultPlanOptions()
		opt.Force = force
		if _, _, err := r.MatchContext(ctx, src, 5, opt); err == nil {
			t.Errorf("force=%s: cancelled context did not abort the match", force)
		}
	}
}
