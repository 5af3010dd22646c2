package registry

// RetrievalStats reports what one retrieval call did — the decision the
// planner made (or the caller forced), the inputs it decided from, and
// what the execution actually touched. Every retrieval path returns it
// (exact and pruned included), so the server always surfaces how much of
// the repository a query cost regardless of strategy.
type RetrievalStats struct {
	// Strategy is the retrieval path that ran (never StrategyAuto).
	Strategy Strategy
	// Planned reports the strategy was chosen by the planner from
	// per-probe statistics; false means the caller forced it
	// (PlanOptions.Force, or cupidd's -retrieval=index|pruned|exact).
	Planned bool
	// CandidatesScored is the number of entries whose cheap signature was
	// scored during candidate generation: the inverted index's survivors
	// on the indexed path, the whole repository on the pruned
	// sweep and the scans. The gap between this and the repository size is
	// the work the index never did.
	CandidatesScored int
	// CandidatesMatched is the number of entries that reached the tree
	// match: each was scored through TreeMatch (core.Matcher.MatchScore,
	// or MatchPrepared where the configuration's leaf score needs the
	// whole pipeline). Materializing the full results of the returned top
	// K afterwards is not counted. A candidate whose score
	// PlanOptions.Memo held counts here too (see PairsReused).
	CandidatesMatched int
	// PairsReused is how many of the CandidatesMatched took their score
	// from PlanOptions.Memo instead of a tree match, so
	// CandidatesMatched − PairsReused pairs were actually matched.
	PairsReused int
	// CandidateBudget is the candidate limit the call ran under: the
	// planner's budget on planned runs, budget(strategy, n, topK,
	// degraded) for the repository size and topK at hand on forced ones,
	// the corpus size on exact scans — so a response always carries the
	// budget that actually produced it.
	CandidateBudget int
	// Indexed reports whether the inverted index generated the candidates
	// (false when the repository was small enough, or the query signature
	// token-less, so an indexed call fell back to an exact scan).
	Indexed bool
	// Degraded reports that the budget was deliberately halved to shed
	// load (PlanOptions.Degraded, set by the serving layer under
	// saturation), so clients can tell a load-shed ranking from a
	// full-budget one. Never set when the exact path ran.
	Degraded bool
	// Corpus is the repository size the decision saw — a planner input,
	// also filled on forced runs from the execution-time size.
	Corpus int
	// ProbeTokens is the probe signature's token count (planner input;
	// zero on forced runs, which never consult the statistics).
	ProbeTokens int
	// TokensIndexed is how many probe tokens the index has seen (planner
	// input; zero on forced runs).
	TokensIndexed int
	// TokensCommon is how many of those are stop-common — posting lists
	// past the index's stop-posting cut, the same corpus-wide rule TopK
	// skips by (planner input; zero on forced runs).
	TokensCommon int
	// PostingsKept is the summed document frequency of the kept probe
	// tokens: the candidate pool the planner sized its budget against
	// (planner input; zero on forced runs).
	PostingsKept int
}
