package registry

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/model"
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
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// ParseStrategy parses a -retrieval flag value: auto, exact, pruned, or
// index (indexed is accepted as a synonym).
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
	}
	return StrategyAuto, fmt.Errorf("unknown retrieval strategy %q (want auto, index, pruned or exact)", s)
}

// The candidate budget is one fixed policy: the pruned path lets a
// quarter of the repository through to the full tree match, the indexed
// path an eighth, both never fewer than budgetFloor candidates. The
// indexed path affords half the pruned fraction because its candidates
// all share a token with the probe, where the pruned sweep ranks every
// entry blindly. cupidbench validates both: recall@K = 1.0 for the pruned
// path on its 1-vs-200 corpus, recall@10 >= 0.98 for the indexed path on
// its 1-vs-2000 corpus.
const (
	prunedFraction  = 0.25
	indexedFraction = 0.125
	budgetFloor     = 16
)

// budget is the candidate budget of strategy s over a repository of n
// entries:
//
//	max(floor, ceil(f·n), topK)
//
// with f the strategy's fraction, so a budgeted path only narrows once
// the repository outgrows the floor, and a caller asking for more results
// than the fraction admits always gets at least topK candidates matched.
// The fraction is applied with a ceiling, never integer division.
// degraded (load shedding) halves both the fraction and the floor. The
// exact scan — and any strategy without a fraction — is budgeted the whole
// repository, degraded or not. n <= 0 yields 0. The result may exceed n;
// callers treat that as "scan everything".
func budget(s Strategy, n, topK int, degraded bool) int {
	if n <= 0 {
		return 0
	}
	var f float64
	switch s {
	case StrategyPruned:
		f = prunedFraction
	case StrategyIndexed:
		f = indexedFraction
	default:
		return n
	}
	floor := budgetFloor
	if degraded {
		f, floor = f/2, floor/2
	}
	return max(floor, int(math.Ceil(f*float64(n))), topK)
}

// PlanOptions configures one planned match: which strategy to run (or
// StrategyAuto to let the statistics decide), and whether the serving
// layer wants the candidate budgets halved to shed load. The zero value
// plans automatically under the fixed budgets (budget).
type PlanOptions struct {
	// Force pins the strategy instead of planning; forced budgets are
	// sized from the entry set at execution time. StrategyAuto — the zero
	// value — plans from per-probe statistics.
	Force Strategy
	// Degraded halves the candidate budget's fraction and floor before
	// planning or execution (the serving layer's load-shedding shrink),
	// and marks the resulting stats Degraded unless the exact path ran (a
	// full scan has no budget to shrink).
	Degraded bool
	// Memo, when set, is an earlier ranking of the same source that this
	// one may reuse pair by pair, and receives this ranking's candidate
	// scores (see Memo). Planning and candidate generation ignore it, so
	// the plan and the candidate set are always current.
	Memo Memo
}

// DefaultPlanOptions returns the zero value: automatic planning under the
// fixed candidate budgets.
func DefaultPlanOptions() PlanOptions {
	return PlanOptions{}
}

// Plan is one retrieval decision: the strategy that will run, the
// candidate budget it will run under, and — when the planner chose —
// the statistics it chose from. Forced plans (Planned=false) carry
// Budget=0: the executor sizes the budget from the entry set at
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
	// budget the executor sizes at execution time.
	Budget int
	// Corpus is the indexed document count the decision saw.
	Corpus int
	// ProbeTokens is the probe signature's token count.
	ProbeTokens int
	// TokensIndexed is how many probe tokens the index has seen at all.
	TokensIndexed int
	// TokensCommon is how many of those are stop-common: posting lists
	// past the stop-posting cut, which index.TopK skips.
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
}

// Plan decides how a probe will be retrieved, without running anything.
// Forced strategies pass through (budgets resolved at execution).
// StrategyAuto consults
// index.ProbeStats — O(probe tokens), allocation-free — and picks
// greedily, with the static budgets budget(strategy, n, topK, degraded):
//
//	exact    n = 0, a token-less probe, or static budgets that already
//	         reach the whole corpus: every path degenerates to the full
//	         scan, so run the cheapest spelling of it.
//	pruned   the index cannot separate this probe's true matches from
//	         the crowd: it is blind to the probe (no token indexed),
//	         sees only stop-common tokens (discovery would touch
//	         most of the corpus to discriminate nothing), or every
//	         token it keeps is generic (even the probe's rarest
//	         indexed token reaches more documents than the candidate
//	         budget admits, so the index cannot isolate a
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
	if opt.Force != StrategyAuto {
		return Plan{Strategy: opt.Force, Degraded: opt.Degraded && opt.Force != StrategyExact}
	}
	p := Plan{Planned: true, Degraded: opt.Degraded}
	sig := src.Signature()
	r.mu.RLock()
	st := r.idx.ProbeStats(sig)
	r.mu.RUnlock()
	n := st.Docs
	p.Corpus, p.ProbeTokens = n, st.ProbeTokens
	p.TokensIndexed, p.TokensCommon = st.TokensIndexed, st.TokensCommon
	p.PostingsKept, p.MaxKeptDF, p.MinKeptDF = st.PostingsKept, st.MaxKeptDF, st.MinKeptDF
	pruneLimit := budget(StrategyPruned, n, topK, opt.Degraded)
	idxLimit := budget(StrategyIndexed, n, topK, opt.Degraded)
	switch {
	case n == 0 || len(sig.Tokens) == 0 || idxLimit >= n || pruneLimit >= n:
		p.Strategy, p.Budget, p.Degraded = StrategyExact, n, false
	case st.TokensIndexed == 0 || st.PostingsKept == 0 || st.MinKeptDF >= idxLimit:
		p.Strategy, p.Budget = StrategyPruned, pruneLimit
	default:
		p.Strategy, p.Budget = StrategyIndexed, min(idxLimit, adaptiveBudget(st.MaxKeptDF, topK, opt.Degraded))
	}
	return p
}

// adaptiveBudget sizes a planned indexed run for a selective probe: the
// probe's biggest one-token candidate cluster plus 25% headroom (so
// near-cluster candidates reachable through rarer tokens still fit),
// floored like every budget at the (possibly halved) floor and at topK —
// which is exactly the budget of a one-entry repository. The caller caps
// it at the static budget: adaptation only ever shrinks.
func adaptiveBudget(maxKeptDF, topK int, degraded bool) int {
	return max(maxKeptDF+maxKeptDF/4, budget(StrategyIndexed, 1, topK, degraded))
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
	return r.execute(ctx, src, topK, r.Plan(src, topK, opt), opt.Memo)
}

// stats returns the part of a RetrievalStats the plan itself decides: the
// strategy, how it was chosen, and the planner's inputs.
func (p Plan) stats() RetrievalStats {
	return RetrievalStats{
		Strategy:      p.Strategy,
		Planned:       p.Planned,
		Degraded:      p.Degraded,
		Corpus:        p.Corpus,
		ProbeTokens:   p.ProbeTokens,
		TokensIndexed: p.TokensIndexed,
		TokensCommon:  p.TokensCommon,
		PostingsKept:  p.PostingsKept,
	}
}

// execute runs one plan: every strategy generates candidates
// (candidates) and ranks them here, in one place, reusing what memo (may
// be nil) holds.
func (r *Registry) execute(ctx context.Context, src *core.Prepared, topK int, plan Plan, memo Memo) ([]Ranked, RetrievalStats, error) {
	switch plan.Strategy {
	case StrategyPruned, StrategyIndexed:
	default: // StrategyExact — and the safe fallback for invalid values
		plan.Strategy, plan.Degraded = StrategyExact, false
	}
	c, err := r.candidates(ctx, src, topK, plan)
	st := plan.stats()
	if !plan.Planned {
		st.Corpus = c.corpus
	}
	st.CandidatesScored, st.CandidatesMatched = c.scored, len(c.entries)
	st.CandidateBudget, st.Indexed = c.budget, c.indexed
	if err != nil {
		return nil, st, err
	}
	ranked, reused, err := r.rank(ctx, c.entries, src, topK, memo)
	st.PairsReused = reused
	return ranked, st, err
}

// candidateSet is what candidate generation hands the ranking stage.
type candidateSet struct {
	// entries are the candidates that reach the tree match.
	entries []*Entry
	// corpus is the repository size the budget was sized from.
	corpus int
	// scored counts the signatures scored to pick the candidates.
	scored int
	// budget is the candidate budget generation ran under.
	budget int
	// indexed reports the inverted index generated the candidates.
	indexed bool
}

// candidates generates plan's candidates: the top budget entries by
// signature affinity on the pruned path, the inverted index's top budget
// on the indexed path, and every entry on the exact path — or whenever
// the budget covers the repository, or an indexed probe has no token to
// look up. Planned runs use the plan's budget; forced runs size it from
// the entry set at execution time, so a forced ranking depends only on
// the entries it runs over.
func (r *Registry) candidates(ctx context.Context, src *core.Prepared, topK int, plan Plan) (candidateSet, error) {
	c, entries := r.generate(src.Signature(), topK, plan)
	if c.indexed {
		return c, nil
	}
	sortByName(entries)
	if c.budget < c.corpus && plan.Strategy == StrategyPruned {
		cands, err := r.pruneByAffinity(ctx, entries, src, c.budget)
		c.entries, c.scored = cands, len(entries)
		return c, err
	}
	c.entries, c.scored = entries, len(entries)
	return c, nil
}

// generate is the part of candidates that reads the repository, all
// under one read lock: it sizes the budget from the corpus it sees and
// either returns the index's top budget entries (c.indexed set) or every
// entry, unordered, for the caller to prune or scan. Index and map are
// read in the same critical section, so every candidate the index names
// is a current entry.
func (r *Registry) generate(sig model.Signature, topK int, plan Plan) (candidateSet, []*Entry) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := candidateSet{budget: plan.Budget, corpus: len(r.byName)}
	if !plan.Planned || plan.Strategy == StrategyExact {
		c.budget = budget(plan.Strategy, c.corpus, topK, plan.Degraded)
	}
	if c.budget < c.corpus && plan.Strategy == StrategyIndexed && len(sig.Tokens) > 0 {
		cands, st := r.idx.TopK(sig, c.budget)
		c.entries = make([]*Entry, len(cands))
		for i, cand := range cands {
			c.entries[i] = r.byName[cand.Key]
		}
		c.scored, c.indexed = st.Scored, true
		return c, nil
	}
	return c, r.entriesLocked()
}
