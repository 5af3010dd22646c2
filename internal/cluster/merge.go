package cluster

import "repro/internal/registry"

// MergedStats is the aggregate of per-shard RetrievalStats. Strategy and
// the embedded counters follow the documented aggregation rules (see
// MergeStats); Mixed reports that the shards ran different strategies, in
// which case the embedded Strategy is the first shard's and the wire
// layer reports the literal string "mixed" instead.
type MergedStats struct {
	registry.RetrievalStats
	// Mixed reports the shards did not all run the same strategy.
	Mixed bool
}

// StrategyLabel is the wire spelling of the merged strategy: the shared
// strategy's name when uniform, "mixed" otherwise.
func (m MergedStats) StrategyLabel() string {
	if m.Mixed {
		return "mixed"
	}
	return m.Strategy.String()
}

// MergeStats aggregates per-shard retrieval statistics into the stats of
// the logical single-node run the cluster stands in for. The rules, which
// the property test pins against a real unsharded run:
//
//   - Corpus, CandidatesScored, CandidatesMatched, CandidateBudget,
//     PostingsKept, TokensIndexed, TokensCommon: summed — each shard did
//     that slice of the global work.
//   - ProbeTokens: maximum — every shard saw the same probe, so the
//     values agree (zero on forced runs); max tolerates a mix of forced
//     and planned shards.
//   - Degraded, Indexed: OR — one load-shed (or index-driven) shard makes
//     the merged ranking load-shed (index-assisted).
//   - Planned: AND — the merge is "planned" only if every shard's was.
//   - Strategy: the shared value when uniform; Mixed is set otherwise and
//     Strategy holds the first shard's.
func MergeStats(parts []registry.RetrievalStats) MergedStats {
	var m MergedStats
	for i, p := range parts {
		if i == 0 {
			m.Strategy = p.Strategy
			m.Planned = p.Planned
		} else {
			if p.Strategy != m.Strategy {
				m.Mixed = true
			}
			m.Planned = m.Planned && p.Planned
		}
		m.Corpus += p.Corpus
		m.CandidatesScored += p.CandidatesScored
		m.CandidatesMatched += p.CandidatesMatched
		m.CandidateBudget += p.CandidateBudget
		m.PostingsKept += p.PostingsKept
		m.TokensIndexed += p.TokensIndexed
		m.TokensCommon += p.TokensCommon
		if p.ProbeTokens > m.ProbeTokens {
			m.ProbeTokens = p.ProbeTokens
		}
		m.Degraded = m.Degraded || p.Degraded
		m.Indexed = m.Indexed || p.Indexed
	}
	return m
}
