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
	// scored during candidate generation: the inverted index's accumulator
	// survivors on the indexed path, the whole repository on the pruned
	// sweep and the scans. The gap between this and the repository size is
	// the work the index never did.
	CandidatesScored int
	// CandidatesMatched is the number of entries that reached the tree
	// match: each was scored through TreeMatch (core.Matcher.MatchScore,
	// or MatchPrepared where the configuration's leaf score needs the
	// whole pipeline). Materializing the full results of the returned top
	// K afterwards is not counted.
	CandidatesMatched int
	// CandidateBudget is the candidate limit the call ran under: the
	// planner's adaptive budget on planned runs, PruneOptions.Limit for
	// the repository size and topK at hand on forced ones, the corpus
	// size on exact scans — so a response always carries the budget that
	// actually produced it.
	CandidateBudget int
	// Indexed reports whether the inverted index generated the candidates
	// (false when the repository was small enough, or the query signature
	// token-less, so an indexed call fell back to an exact scan).
	Indexed bool
	// Degraded reports that the budget was deliberately shrunk below its
	// configured policy to shed load (PlanOptions.Degraded, set by the
	// serving layer under saturation), so clients can tell a load-shed
	// ranking from a full-budget one. Never set when the exact path ran.
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
	// past index.CommonCutoff (planner input; zero on forced runs).
	TokensCommon int
	// PostingsKept is the summed document frequency of the kept probe
	// tokens: the candidate pool the planner sized its budget against
	// (planner input; zero on forced runs).
	PostingsKept int
	// Families is the number of family medoids the family route probed
	// (zero unless the family strategy actually ran).
	Families int
	// Family is the winning family's medoid name when the family route
	// produced the ranking.
	Family string
	// FamilyFallback reports that a family-strategy call could not run as
	// one — no clustering installed, the clustering gone stale, or its
	// medoids no longer resolving — and fell back to the indexed path.
	FamilyFallback bool
}
