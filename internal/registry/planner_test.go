package registry

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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
	// family was a strategy once; it is refused like any unknown name,
	// with an error naming every valid one.
	for _, name := range []string{"fuzzy", "family"} {
		_, err := ParseStrategy(name)
		if err == nil {
			t.Errorf("ParseStrategy(%s) should fail", name)
			continue
		}
		for _, valid := range []string{"auto", "index", "pruned", "exact"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("ParseStrategy(%s) error %q does not name %s", name, err, valid)
			}
		}
	}
	if got := Strategy(250).String(); got != "strategy(250)" {
		t.Errorf("invalid strategy String() = %q", got)
	}
}

// budgetCase is one row of the candidate-budget policy tests: the budget
// of strategy s over n entries for a topK request, degraded or not.
type budgetCase struct {
	s        Strategy
	n, topK  int
	degraded bool
	want     int
}

func checkBudget(t *testing.T, cases []budgetCase) {
	t.Helper()
	for _, c := range cases {
		if got := budget(c.s, c.n, c.topK, c.degraded); got != c.want {
			t.Errorf("budget(%s, n=%d, topK=%d, degraded=%v) = %d, want %d", c.s, c.n, c.topK, c.degraded, got, c.want)
		}
	}
}

// TestPruneOptionsHalve pins the degraded budget (the policy PruneOptions.
// Halve once spelled): load shedding halves both the fraction and the
// floor of the budgeted paths, topK still lifts the budget, and the exact
// scan is never degraded.
func TestPruneOptionsHalve(t *testing.T) {
	checkBudget(t, []budgetCase{
		{StrategyPruned, 200, 10, true, 25},    // half the pruned fraction
		{StrategyIndexed, 2000, 10, true, 125}, // 1/16 on the indexed path
		{StrategyPruned, 40, 0, true, 8},       // half the floor
		{StrategyIndexed, 40, 12, true, 12},    // topK still lifts
		{StrategyExact, 200, 10, true, 200},    // exact is never degraded
	})
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

	// The static budgets at n = 200, topK = 10: a quarter and an eighth of
	// the corpus, both above the floor of 16.
	const prunedBudget, indexedBudget = 50, 25

	t.Run("index-blind probe", func(t *testing.T) {
		src := mustPrepare(t, r, unseenProbe())
		p := r.Plan(src, topK, opts)
		if p.TokensIndexed != 0 {
			t.Fatalf("probe unexpectedly shares tokens with the corpus: %+v", p)
		}
		want := prunedBudget
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
		if p.MinKeptDF < indexedBudget {
			t.Fatalf("stop-heavy probe's rarest kept token df %d fits the static budget", p.MinKeptDF)
		}
		want := prunedBudget
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
		// static budget and floored at 16 and topK.
		want := min(indexedBudget, max(p.MaxKeptDF+p.MaxKeptDF/4, 16, topK))
		if p.Budget != want {
			t.Errorf("plan budget = %d, want %d (MaxKeptDF %d)", p.Budget, want, p.MaxKeptDF)
		}
	})
}

// TestAdaptiveBudget pins the cluster-plus-headroom sizing and its floors.
func TestAdaptiveBudget(t *testing.T) {
	cases := []struct {
		maxDF, topK int
		degraded    bool
		want        int
	}{
		{100, 10, false, 125}, // cluster + 25% headroom
		{4, 10, false, 16},    // floored at 16
		{4, 40, false, 40},    // floored at topK
		{0, 0, false, 16},     // degenerate: the floor still applies
		{4, 0, true, 8},       // degraded: the halved floor
		{100, 10, true, 125},  // degraded: the cluster still decides
	}
	for _, tc := range cases {
		if got := adaptiveBudget(tc.maxDF, tc.topK, tc.degraded); got != tc.want {
			t.Errorf("adaptiveBudget(%d, topK %d, degraded %v) = %d, want %d", tc.maxDF, tc.topK, tc.degraded, got, tc.want)
		}
	}
}

// forcedOracle rebuilds, outside the planner, the candidate set a forced
// strategy must tree-match and the stats it must report. Pruned takes the
// top max(16, ceil(n/4), topK) entries by signature affinity, ties broken
// by name; indexed asks the inverted index for max(16, ceil(n/8), topK)
// candidates. Both fall back to every entry when the budget covers the
// corpus, indexed also for a token-less probe. Degraded halves the
// fractions and the floor; the exact scan has no budget to halve.
func forcedOracle(r *Registry, src *core.Prepared, topK int, opt PlanOptions) ([]*Entry, RetrievalStats) {
	pruned, indexed, floor := 0.25, 0.125, 16
	if opt.Degraded {
		pruned, indexed, floor = 0.125, 0.0625, 8
	}
	entries := r.List()
	n := len(entries)
	limit := func(fraction float64) int {
		return max(floor, int(math.Ceil(fraction*float64(n))), topK)
	}
	st := RetrievalStats{Strategy: opt.Force, Degraded: opt.Degraded, Corpus: n, CandidatesScored: n, CandidatesMatched: n}
	sig := src.Signature()
	switch opt.Force {
	case StrategyPruned:
		st.CandidateBudget = limit(pruned)
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
		st.CandidateBudget = limit(indexed)
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

// TestMatchDegradedHalvesBudgets: a degraded forced run must run under
// the halved budget — half the fraction, half the floor — and say so in
// its stats, and a degraded planned run must plan under the halved
// budgets. A forced exact scan has no budget to shed, so it never reports
// degraded.
func TestMatchDegradedHalvesBudgets(t *testing.T) {
	const topK = 10
	r := newTestRegistry(t)
	prunedCorpus(t, r, 400)
	src := mustPrepare(t, r, workloads.FamilyProbe(3, 21))

	// At n = 400: pruned max(16, 100, 10) → max(8, 50, 10); indexed
	// max(16, 50, 10) → max(8, 25, 10).
	for _, tc := range []struct {
		force          Strategy
		full, degraded int
	}{
		{StrategyPruned, 100, 50},
		{StrategyIndexed, 50, 25},
	} {
		_, st, err := r.Match(src, topK, PlanOptions{Force: tc.force})
		if err != nil {
			t.Fatal(err)
		}
		if st.Degraded || st.CandidateBudget != tc.full {
			t.Errorf("%s: budget %d degraded %v, want %d undegraded", tc.force, st.CandidateBudget, st.Degraded, tc.full)
		}
		_, st, err = r.Match(src, topK, PlanOptions{Force: tc.force, Degraded: true})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Degraded || st.CandidateBudget != tc.degraded || st.CandidatesMatched != tc.degraded {
			t.Errorf("%s degraded: budget %d matched %d degraded %v, want %d both and degraded",
				tc.force, st.CandidateBudget, st.CandidatesMatched, st.Degraded, tc.degraded)
		}
	}

	full := r.Plan(src, topK, DefaultPlanOptions())
	shed := r.Plan(src, topK, PlanOptions{Degraded: true})
	if full.Strategy != StrategyIndexed || shed.Strategy != StrategyIndexed {
		t.Fatalf("plans %+v and %+v, want both indexed", full, shed)
	}
	if want := min(25, max(shed.MaxKeptDF+shed.MaxKeptDF/4, 8, topK)); !shed.Degraded || shed.Budget != want {
		t.Errorf("degraded plan = %+v, want a degraded budget of %d", shed, want)
	}
	if shed.Budget > full.Budget {
		t.Errorf("degraded plan budget %d exceeds the full plan's %d", shed.Budget, full.Budget)
	}

	if _, st, err := r.Match(src, topK, PlanOptions{Force: StrategyExact, Degraded: true}); err != nil {
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
		pruned, _, err := r.Match(src, topK, PlanOptions{Force: StrategyPruned})
		if err != nil {
			t.Fatal(err)
		}
		indexed, _, err := r.Match(src, topK, PlanOptions{Force: StrategyIndexed})
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

// TestPlannedRankingExactOnBridgedCorpus: on a 2k corpus whose families
// chain through shared vocabulary (FamilyCorpusSpec.Bridge: 4), the
// planned top-10 of one probe per domain is the exhaustive scan's.
func TestPlannedRankingExactOnBridgedCorpus(t *testing.T) {
	const topK = 10
	r := newTestRegistry(t)
	for _, s := range workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 200, Seed: 17, Bridge: 4}) {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < workloads.NumFamilies(); f++ {
		src := mustPrepare(t, r, workloads.FamilyProbe(f, 1234))
		got, _, err := r.Match(src, topK, DefaultPlanOptions())
		if err != nil {
			t.Fatal(err)
		}
		truth, err := r.MatchAll(src, topK)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, truth, got)
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

// recordingMemo is a Memo over an earlier ranking: the scores it
// recorded and the entries it returned (whose rendered results a caller
// would hold).
type recordingMemo struct {
	scores   map[string]float64
	rendered map[string]bool
	recorded []PairScore
}

func (m *recordingMemo) Score(fp string) (float64, bool) {
	s, ok := m.scores[fp]
	return s, ok
}

func (m *recordingMemo) Rendered(fp string) bool { return m.rendered[fp] }

func (m *recordingMemo) Record(scores []PairScore) { m.recorded = scores }

// next returns the memo the next ranking of the same source gets from
// this one, which returned ranked.
func (m *recordingMemo) next(ranked []Ranked) *recordingMemo {
	n := &recordingMemo{scores: map[string]float64{}, rendered: map[string]bool{}}
	for _, ps := range m.recorded {
		n.scores[ps.Fingerprint] = ps.Score
	}
	for _, rk := range ranked {
		n.rendered[rk.Entry.Fingerprint] = true
	}
	return n
}

// TestMemoReusesExactlyTheUnchangedPairs: a ranking recomputed after a
// replace, with the earlier ranking as its memo, matches only the
// replaced entry's new content, materializes only the winners the memo
// does not hold, and returns the same ranking, bit for bit, as a ranking
// without a memo. Both a score-only top 5 and an unbounded ranking run,
// under every forced strategy.
func TestMemoReusesExactlyTheUnchangedPairs(t *testing.T) {
	for _, strategy := range []Strategy{StrategyExact, StrategyPruned, StrategyIndexed} {
		for _, topK := range []int{5, 0} {
			t.Run(fmt.Sprintf("%s/top%d", strategy, topK), func(t *testing.T) {
				r := newTestRegistry(t)
				for _, s := range workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 6, Seed: 3}) {
					if _, _, err := r.Register(s.Name, s); err != nil {
						t.Fatal(err)
					}
				}
				src := mustPrepare(t, r, workloads.FamilyProbe(2, 9))
				opt := PlanOptions{Force: strategy}
				first := &recordingMemo{}
				opt.Memo = first
				ranked, st, err := r.Match(src, topK, opt)
				if err != nil {
					t.Fatal(err)
				}
				if st.PairsReused != 0 || len(first.recorded) != st.CandidatesMatched {
					t.Fatalf("first ranking: reused %d pairs, recorded %d of %d candidates; want 0 and all",
						st.PairsReused, len(first.recorded), st.CandidatesMatched)
				}
				// Replace the runner-up with content the repository never held.
				changed := ranked[1].Entry.Name
				fresh := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 1, Seed: 77})[2]
				if _, _, err := r.Register(changed, fresh); err != nil {
					t.Fatal(err)
				}
				opt.Memo = first.next(ranked)
				got, st, err := r.Match(src, topK, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, wantSt, err := r.Match(src, topK, PlanOptions{Force: strategy})
				if err != nil {
					t.Fatal(err)
				}
				assertSameRanking(t, want, got)
				for i := range want {
					if w, g := fmt.Sprintf("%.17g", want[i].Score), fmt.Sprintf("%.17g", got[i].Score); w != g {
						t.Errorf("rank %d (%s): score %s, without a memo %s", i, got[i].Entry.Name, g, w)
					}
					if held := opt.Memo.Rendered(got[i].Entry.Fingerprint); held != (got[i].Result == nil) {
						t.Errorf("rank %d (%s): memo holds its result %t, materialized %t; want exactly the others materialized",
							i, got[i].Entry.Name, held, got[i].Result != nil)
					}
					if got[i].Result == nil {
						continue
					}
					if !slices.Equal(want[i].Result.Mapping.Leaves, got[i].Result.Mapping.Leaves) {
						t.Errorf("rank %d (%s): mapping differs from the ranking without a memo", i, got[i].Entry.Name)
					}
				}
				if st.CandidatesMatched != wantSt.CandidatesMatched {
					t.Errorf("stats %+v: want %d candidates", st, wantSt.CandidatesMatched)
				}
				if matched := st.CandidatesMatched - st.PairsReused; matched != 1 {
					t.Errorf("matched %d pairs after replacing one entry (reused %d of %d), want 1",
						matched, st.PairsReused, st.CandidatesMatched)
				}
			})
		}
	}
}
