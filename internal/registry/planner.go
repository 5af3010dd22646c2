package registry

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// The retrieval planner: one entry point (Match/MatchContext) in front of
// the repository's three retrieval strategies — the exhaustive scan, the
// linear signature-pruned scan, and the inverted-index path — choosing
// per probe from cheap statistics the index already maintains
// (index.ProbeStats: corpus size, per-token posting-list lengths, stop
// -token density), plus a candidate budget sized to the probe's actual
// reachable pool instead of a fixed fraction of the corpus. Planning is
// O(probe tokens) and allocation-free; the decision and its inputs are
// recorded in the returned RetrievalStats, so every ranking is
// self-describing. PlanOptions.Force pins one strategy instead.

// Strategy identifies one retrieval path through the repository.
type Strategy uint8

const (
	// StrategyAuto lets the planner choose a strategy from per-probe
	// statistics (the zero value: unconfigured callers get planning).
	StrategyAuto Strategy = iota
	// StrategyExact is the exhaustive full scan (MatchAll): every entry
	// pays the full tree match.
	StrategyExact
	// StrategyPruned is the linear signature-pruned scan: an affinity
	// against every entry, full match on the top candidates. It trades
	// the full scan's guarantee for match cost — a true top-K entry whose
	// signature looks nothing like the source can be pruned away — and
	// cupidbench measures that risk as recall@K.
	StrategyPruned
	// StrategyIndexed is the inverted-index path: only entries sharing a
	// normalized signature token with the probe are touched at all, so
	// retrieval cost scales with the probe's posting lists, not the
	// repository size. A repository at or below the candidate floor, or a
	// token-less probe, falls back to an exact scan (Indexed=false in the
	// stats).
	StrategyIndexed
	// StrategyFamily is the corpus-clustered route (families.go): the
	// probe is tree-matched against the K family medoids first, then
	// full-matched only within the winning family. Requires an installed,
	// fresh clustering (Registry.SetFamilies); execution falls back to the
	// indexed path otherwise, flagged FamilyFallback in the stats.
	StrategyFamily
)

// String returns the strategy's wire name (the value cupidd's -retrieval
// flag parses and /match/batch reports).
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyExact:
		return "exact"
	case StrategyPruned:
		return "pruned"
	case StrategyIndexed:
		return "indexed"
	case StrategyFamily:
		return "family"
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// ParseStrategy parses a -retrieval flag value: auto, exact, pruned,
// family, or index (indexed is accepted as a synonym).
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "auto":
		return StrategyAuto, nil
	case "exact":
		return StrategyExact, nil
	case "pruned":
		return StrategyPruned, nil
	case "index", "indexed":
		return StrategyIndexed, nil
	case "family":
		return StrategyFamily, nil
	}
	return StrategyAuto, fmt.Errorf("unknown retrieval strategy %q (want auto, index, pruned, family or exact)", s)
}

// PlanOptions configures one planned match: which strategy to run (or
// StrategyAuto to let the statistics decide), the per-path candidate
// budget policies, and whether the serving layer wants budgets halved to
// shed load. The zero value plans automatically under full-scan budgets;
// DefaultPlanOptions supplies the tuned per-path defaults.
type PlanOptions struct {
	// Force pins the strategy instead of planning; forced budgets are
	// derived from the corpus size at execution (PruneOptions.Limit).
	// StrategyAuto — the zero value — plans from per-probe statistics.
	Force Strategy
	// Prune sizes the pruned path's candidate budget (PruneOptions.Limit).
	Prune PruneOptions
	// Index sizes the indexed path's candidate budget.
	Index PruneOptions
	// Degraded halves both budget policies before planning or execution
	// (PruneOptions.Halve — exactly the serving layer's load-shedding
	// shrink), and marks the resulting stats Degraded unless the exact
	// path ran (a full scan has no budget to shrink).
	Degraded bool
}

// DefaultPlanOptions plans automatically under the default per-path
// budget policies (DefaultPruneOptions, DefaultIndexOptions).
func DefaultPlanOptions() PlanOptions {
	return PlanOptions{Prune: DefaultPruneOptions(), Index: DefaultIndexOptions()}
}

// Halve shrinks a candidate budget policy for degraded (load-shedding)
// operation: half the fraction, half the floor. A full-scan config
// (Fraction outside (0,1] means "everything") is left alone — there is
// no budget to shrink.
func (o PruneOptions) Halve() PruneOptions {
	if o.Fraction <= 0 || o.Fraction > 1 {
		return o
	}
	o.Fraction /= 2
	if o.MinCandidates > 1 {
		o.MinCandidates /= 2
	}
	return o
}

// Plan is one retrieval decision: the strategy that will run, the
// candidate budget it will run under, and — when the planner chose —
// the statistics it chose from. Forced plans (Planned=false) carry
// Budget=0: the executor derives the budget from the corpus size at
// execution time.
type Plan struct {
	// Strategy is the path that will run (never StrategyAuto).
	Strategy Strategy
	// Planned reports the strategy was chosen from statistics rather than
	// forced by the caller.
	Planned bool
	// Degraded reports the budgets were halved to shed load (never set
	// with StrategyExact — a full scan has no budget).
	Degraded bool
	// Budget is the resolved candidate budget for planned runs (the
	// number of entries allowed through to the full tree match; for
	// StrategyExact it is the corpus size). Zero on forced plans, whose
	// budget the executor re-derives at execution time.
	Budget int
	// Prune is the (possibly halved) pruned-path budget policy.
	Prune PruneOptions
	// Index is the (possibly halved) indexed-path budget policy.
	Index PruneOptions
	// Corpus is the indexed document count the decision saw.
	Corpus int
	// ProbeTokens is the probe signature's token count.
	ProbeTokens int
	// TokensIndexed is how many probe tokens the index has seen at all.
	TokensIndexed int
	// TokensCommon is how many of those are stop-common
	// (index.CommonCutoff) — skipped by the stop-posting cut.
	TokensCommon int
	// PostingsKept is the summed document frequency of the kept
	// (indexed, non-common) probe tokens: the reachable candidate pool.
	PostingsKept int
	// MaxKeptDF is the largest kept token's document frequency: the
	// biggest one-token candidate cluster, which the adaptive budget is
	// sized to cover.
	MaxKeptDF int
	// MinKeptDF is the smallest kept token's document frequency: the
	// probe's sharpest discriminating signal. The planner abandons the
	// index when even this cluster overflows the static candidate budget.
	MinKeptDF int
	// Families is the installed family count the family route will probe
	// (zero when the plan is not StrategyFamily). The family budget itself
	// is resolved at execution time from the winning family's size.
	Families int
}

// Plan decides how a probe will be retrieved, without running anything.
// Forced strategies pass through (budgets resolved at execution).
// StrategyAuto consults
// index.ProbeStats — O(probe tokens), allocation-free — and picks
// greedily:
//
//	exact    n = 0, a token-less probe, or static budgets that already
//	         reach the whole corpus: every path degenerates to the full
//	         scan, so run the cheapest spelling of it.
//	family   a fresh corpus clustering is installed (SetFamilies) and the
//	         corpus is large enough (familyAutoMinCorpus) for medoid
//	         routing to pay: tree-match the K medoids, full-match only
//	         within the winning family. Falls back to indexed at
//	         execution time if the clustering went stale in between.
//	pruned   the index cannot separate this probe's true matches from
//	         the crowd: it is blind to the probe (no token indexed),
//	         sees only stop-common tokens (accumulation would touch
//	         most of the corpus to discriminate nothing), or every
//	         token it keeps is generic (even the probe's rarest
//	         indexed token reaches more documents than the candidate
//	         budget admits, so the accumulator cannot isolate a
//	         cluster and ranks noise). The linear affinity sweep
//	         scores every entry on the full signature — token overlap
//	         and size similarity — and reaches everything the index
//	         would and more, at the pruned budget.
//	indexed  otherwise — with the budget adapted down from the static
//	         ⅛-of-corpus policy to cover the probe's biggest one-token
//	         cluster (MaxKeptDF plus headroom) when that cluster is
//	         smaller: a selective probe's true matches concentrate in
//	         its clusters, so matching a fixed corpus fraction beyond
//	         them is pure waste.
func (r *Registry) Plan(src *core.Prepared, topK int, opt PlanOptions) Plan {
	if opt.Degraded {
		opt.Prune = opt.Prune.Halve()
		opt.Index = opt.Index.Halve()
	}
	p := Plan{Strategy: opt.Force, Degraded: opt.Degraded, Prune: opt.Prune, Index: opt.Index}
	if opt.Force != StrategyAuto {
		if opt.Force == StrategyExact {
			p.Degraded = false
		}
		return p
	}
	p.Planned = true
	sig := src.Signature()
	st := r.idx.ProbeStats(sig)
	n := st.Docs
	p.Corpus, p.ProbeTokens = n, st.ProbeTokens
	p.TokensIndexed, p.TokensCommon = st.TokensIndexed, st.TokensCommon
	p.PostingsKept, p.MaxKeptDF, p.MinKeptDF = st.PostingsKept, st.MaxKeptDF, st.MinKeptDF
	pruneLimit := opt.Prune.Limit(n, topK)
	idxLimit := opt.Index.Limit(n, topK)
	fams := r.usableFamilies()
	switch {
	case n == 0 || len(sig.Tokens) == 0 || idxLimit >= n || pruneLimit >= n:
		p.Strategy, p.Budget, p.Degraded = StrategyExact, n, false
	case fams != nil && n >= familyAutoMinCorpus:
		// Budget resolved at execution from the winning family's size
		// (plan.Index.Limit over its members, plus the medoid probes).
		p.Strategy, p.Families = StrategyFamily, len(fams.medoids)
	case st.TokensIndexed == 0 || st.PostingsKept == 0 || st.MinKeptDF >= idxLimit:
		p.Strategy, p.Budget = StrategyPruned, pruneLimit
	default:
		budget := idxLimit
		if adaptive := adaptiveBudget(st.MaxKeptDF, opt.Index, topK); adaptive < budget {
			budget = adaptive
		}
		p.Strategy, p.Budget = StrategyIndexed, budget
	}
	return p
}

// adaptiveBudget sizes a planned indexed run for a selective probe: the
// probe's biggest one-token candidate cluster plus 25% headroom (so
// near-cluster candidates reachable through rarer tokens still fit),
// floored at the policy's MinCandidates and at topK. The caller caps it
// at the static policy budget — adaptation only ever shrinks.
func adaptiveBudget(maxKeptDF int, opt PruneOptions, topK int) int {
	b := maxKeptDF + maxKeptDF/4
	floor := opt.MinCandidates
	if floor < 1 {
		floor = 1
	}
	if b < floor {
		b = floor
	}
	if b < topK {
		b = topK
	}
	return b
}

// Match is MatchContext with a background context: plan (or obey Force)
// and run one retrieval, returning the ranking and the stats that
// describe what ran.
func (r *Registry) Match(src *core.Prepared, topK int, opt PlanOptions) ([]Ranked, RetrievalStats, error) {
	return r.MatchContext(context.Background(), src, topK, opt)
}

// MatchContext is the planned entry point unifying the repository's
// retrieval paths: it plans (Plan), executes the chosen strategy, and
// returns the ranking plus a RetrievalStats recording the decision, its
// inputs and what the execution actually touched. All strategies check
// ctx cooperatively in their scoring loops, so an abandoned caller stops
// consuming CPU; ctx.Err() is returned when cut short.
func (r *Registry) MatchContext(ctx context.Context, src *core.Prepared, topK int, opt PlanOptions) ([]Ranked, RetrievalStats, error) {
	return r.execute(ctx, src, topK, r.Plan(src, topK, opt))
}

// execute runs one plan. Forced plans derive their candidate budget from
// the corpus size at execution time, so a forced ranking depends only on
// the entry set it runs over.
func (r *Registry) execute(ctx context.Context, src *core.Prepared, topK int, plan Plan) ([]Ranked, RetrievalStats, error) {
	st := RetrievalStats{
		Strategy:      plan.Strategy,
		Planned:       plan.Planned,
		Degraded:      plan.Degraded,
		Corpus:        plan.Corpus,
		ProbeTokens:   plan.ProbeTokens,
		TokensIndexed: plan.TokensIndexed,
		TokensCommon:  plan.TokensCommon,
		PostingsKept:  plan.PostingsKept,
	}
	switch plan.Strategy {
	case StrategyPruned:
		entries := r.List()
		limit := plan.Budget
		if !plan.Planned {
			limit = plan.Prune.Limit(len(entries), topK)
			st.Corpus = len(entries)
		}
		st.CandidateBudget = limit
		st.CandidatesScored = len(entries)
		if limit >= len(entries) {
			ranked, err := r.rank(ctx, entries, src, topK)
			st.CandidatesMatched = len(entries)
			return ranked, st, err
		}
		cands, err := r.pruneByAffinity(ctx, entries, src, limit)
		if err != nil {
			return nil, st, err
		}
		ranked, err := r.rank(ctx, cands, src, topK)
		st.CandidatesMatched = len(cands)
		return ranked, st, err
	case StrategyIndexed:
		n := r.Len()
		limit := plan.Budget
		if !plan.Planned {
			limit = plan.Index.Limit(n, topK)
			st.Corpus = n
		}
		srcSig := src.Signature()
		if limit >= n || len(srcSig.Tokens) == 0 {
			entries := r.List()
			ranked, err := r.rank(ctx, entries, src, topK)
			st.CandidatesScored, st.CandidatesMatched, st.CandidateBudget = len(entries), len(entries), limit
			return ranked, st, err
		}
		cands, ist := r.idx.TopK(srcSig, limit)
		entries := make([]*Entry, 0, len(cands))
		for _, c := range cands {
			// A candidate may have been removed (or replaced under a name
			// that now hashes elsewhere) since the index snapshot; skip the
			// gone.
			if e, ok := r.Get(c.Key); ok {
				entries = append(entries, e)
			}
		}
		ranked, err := r.rank(ctx, entries, src, topK)
		st.CandidatesScored, st.CandidatesMatched, st.CandidateBudget = ist.Scored, len(entries), limit
		st.Indexed = true
		return ranked, st, err
	case StrategyFamily:
		return r.executeFamily(ctx, src, topK, plan, st)
	default: // StrategyExact — and the safe fallback for invalid values
		entries := r.List()
		ranked, err := r.rank(ctx, entries, src, topK)
		st.Strategy = StrategyExact
		st.CandidatesScored, st.CandidatesMatched, st.CandidateBudget = len(entries), len(entries), len(entries)
		if !plan.Planned {
			st.Corpus = len(entries)
		}
		return ranked, st, err
	}
}
