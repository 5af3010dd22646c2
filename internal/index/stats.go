package index

import "repro/internal/model"

// Per-query probe statistics: the cheap, O(probe tokens) numbers the
// retrieval planner (registry.Plan) consults before committing to a
// strategy. A token's document frequency is the length of its posting
// list, and the stop-common split uses the same cut TopK applies, so a
// planner can read the candidate pool a probe reaches, and how much of
// that pool sits behind stop-common tokens, without walking a single
// posting list. None of this changes retrieval behavior; TopK is
// byte-identical with or without a ProbeStats call.

// ProbeStats summarizes what the index knows about one query signature:
// corpus size, how many of the probe's tokens the index has seen, how
// many of those are stop-common (posting lists past the stop-posting
// cut), and the size of the posting pool behind the remaining
// discriminating tokens. The call is O(len(q.Tokens)) map lookups and
// allocates nothing.
type ProbeStats struct {
	// Docs is the number of indexed documents (the corpus size).
	Docs int
	// ProbeTokens is len(q.Tokens): the probe signature's vocabulary size.
	ProbeTokens int
	// TokensIndexed is the number of probe tokens at least one document
	// contains. Zero means the index is blind to this probe — it would
	// generate no candidates at all.
	TokensIndexed int
	// TokensCommon is the number of indexed probe tokens whose document
	// frequency exceeds the stop-posting cut — corpus-wide stems TopK
	// skips during discovery (unless no token is kept at all).
	TokensCommon int
	// PostingsKept is the summed document frequency over the indexed,
	// non-common probe tokens: the number of postings TopK walks for this
	// probe, and so an upper bound on its survivors.
	PostingsKept int
	// MaxKeptDF is the largest single document frequency among the kept
	// (indexed, non-common) tokens: the size of the biggest one-token
	// candidate cluster. A budget covering this cluster covers every
	// document reachable through the probe's most popular discriminating
	// token.
	MaxKeptDF int
	// MinKeptDF is the smallest single document frequency among the kept
	// tokens: the probe's sharpest discriminating signal. When even this
	// is a large fraction of the corpus, every posting list TopK would
	// walk is near-uniform noise and the index cannot separate true
	// matches from the crowd. Zero when nothing is kept.
	MinKeptDF int
}

// ProbeStats reports the planner statistics for one query signature. It
// is O(len(q.Tokens)) and allocation-free.
func (ix *Index) ProbeStats(q model.Signature) ProbeStats {
	st := ProbeStats{Docs: len(ix.byKey), ProbeTokens: len(q.Tokens)}
	cut := stopPostingCut(st.Docs)
	for _, t := range q.Tokens {
		df := len(ix.post[t])
		if df == 0 {
			continue
		}
		st.TokensIndexed++
		if df > cut {
			st.TokensCommon++
			continue
		}
		st.PostingsKept += df
		st.MaxKeptDF = max(st.MaxKeptDF, df)
		if st.MinKeptDF == 0 || df < st.MinKeptDF {
			st.MinKeptDF = df
		}
	}
	return st
}
