// Package index implements the repository's token inverted index: the
// sublinear candidate-generation stage of retrieval. Where signature
// pruning (the registry's pruned strategy) still computes an affinity against every
// stored schema — O(n) per query — the index inverts the token bags once,
// at registration: each normalized signature token maps to a posting list
// of the schemas containing it, so a query only ever touches schemas that
// share at least one token with it.
//
// Retrieval is the classic two-stage funnel:
//
//  1. Discover: every kept query token's posting list is walked once, and
//     each document it names becomes a survivor (marked once, however many
//     tokens it shares). Schemas sharing no token are never touched, and
//     query tokens whose posting list covers a large fraction of the
//     corpus (corpus-wide stems like "date" or "name") are skipped as
//     discriminating nothing — the stop-posting cut that keeps the
//     survivor set proportional to genuine overlap instead of collapsing
//     to the whole repository.
//  2. Re-rank: the survivors are re-ranked by the exact signature affinity
//     (a literal model.Signature.Affinity call — identical to the score
//     the pruned path uses, skipped tokens and all), descending, ties
//     broken by key, and truncated to the candidate budget.
//
// The caller (the registry's indexed strategy) then runs the full tree match on the
// returned candidates only. A schema whose only overlap with the query is
// skipped common tokens is unreachable — by construction such a schema's
// token Jaccard is low, and the recall trade is measured, not assumed
// (cupidbench asserts recall@10 >= 0.98 vs the exact scan on the
// 1-vs-2000 corpus).
//
// The stop-posting cut is one corpus-wide rule (stopPostingCut), and the
// document frequency of a token is simply the length of its posting list,
// so the planner statistics (ProbeStats) describe exactly the walk TopK
// does.
//
// An Index is not safe for concurrent use: the registry guards it, and
// its own entry map, with one sync.RWMutex — maintenance under the write
// lock, TopK and ProbeStats under the read lock (neither writes).
//
// The index is maintained strictly incrementally and is never persisted:
// the durable registry rebuilds it deterministically by re-registering the
// snapshot's documents on recovery. Determinism holds by construction —
// signature token bags are sorted and deduplicated, the survivor set does
// not depend on posting-list order, and the final ordering breaks ties by
// key — so any interleaving of Upsert/Remove that reaches the same entry
// set yields the same TopK as an index built from scratch (asserted by the
// property tests).
package index

import (
	"sort"

	"repro/internal/model"
)

// DefaultShards is a legacy argument for New, which ignores it; it is
// kept only because bench/trace.go calls index.New(index.DefaultShards).
const DefaultShards = 16

// docInfo is the record the index keeps per document id: the registry key
// and the full signature (the token bag drives posting removal; the whole
// signature serves the exact affinity re-rank). A freed id holds the zero
// value until it is reused.
type docInfo struct {
	key string
	sig model.Signature
}

// Index is the inverted index. It is not safe for concurrent use; see
// the package comment.
type Index struct {
	docs  []docInfo         // by document id
	free  []uint32          // ids of removed documents, reused first
	byKey map[string]uint32 // registry key → document id, for O(1) eviction
	post  map[string][]uint32
}

// New builds an empty index. The argument is ignored: it is kept only so
// bench/trace.go's index.New(index.DefaultShards) still compiles.
func New(int) *Index {
	return &Index{byKey: map[string]uint32{}, post: map[string][]uint32{}}
}

// Upsert indexes the signature under key, evicting any previous content
// indexed under the same key. The fingerprint is ignored: it is kept only
// so bench/trace.go's call still compiles.
func (ix *Index) Upsert(key, _ string, sig model.Signature) {
	ix.Remove(key)
	var id uint32
	if n := len(ix.free); n > 0 {
		id = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.docs[id] = docInfo{key: key, sig: sig}
	} else {
		id = uint32(len(ix.docs))
		ix.docs = append(ix.docs, docInfo{key: key, sig: sig})
	}
	ix.byKey[key] = id
	for _, t := range sig.Tokens {
		ix.post[t] = append(ix.post[t], id)
	}
}

// Remove drops the document indexed under key, along with every posting
// it contributed, reporting whether it was indexed. Posting lists are
// unordered (the survivor set does not depend on their order), so
// eviction is a swap-remove.
func (ix *Index) Remove(key string) bool {
	id, ok := ix.byKey[key]
	if !ok {
		return false
	}
	delete(ix.byKey, key)
	for _, t := range ix.docs[id].sig.Tokens {
		ps := ix.post[t]
		for i := range ps {
			if ps[i] == id {
				ps[i] = ps[len(ps)-1]
				ps = ps[:len(ps)-1]
				break
			}
		}
		if len(ps) == 0 {
			delete(ix.post, t)
		} else {
			ix.post[t] = ps
		}
	}
	ix.docs[id] = docInfo{}
	ix.free = append(ix.free, id)
	return true
}

// Len reports the number of indexed documents.
func (ix *Index) Len() int { return len(ix.byKey) }

// Candidate is one retrieval survivor: a document sharing at least one
// kept token with the query, scored for the final candidate ranking.
type Candidate struct {
	// Key is the registry key the document was indexed under.
	Key string
	// Affinity is the exact signature affinity (model.Signature.Affinity)
	// between the query and this document — the re-rank score, identical
	// to what the pruned path would have computed.
	Affinity float64
}

// Stats reports what one TopK call did, for observability (the server
// surfaces it as candidates_scored).
type Stats struct {
	// Scored is the number of survivors — documents sharing at least one
	// kept token with the query, each of which received an exact affinity
	// score. The gap between Scored and the repository size is the work
	// the inverted index never did.
	Scored int
}

// Stop-posting cut: a query token is skipped when its posting list
// exceeds both an absolute floor (a repository of at most 512 documents
// never skips — small repositories behave exactly like a scan) and a
// fraction of the indexed documents (a token most of the corpus contains
// separates nothing). Both are pure functions of the current entry set,
// so skipping is deterministic and identical for an incrementally
// maintained and a from-scratch index.
const (
	commonPostingFloor    = 512
	commonPostingFraction = 0.25
)

// stopPostingCut returns the posting-list length above which a token
// counts as stop-common in a corpus of docs documents:
// max(floor, ⌊fraction × docs⌋).
func stopPostingCut(docs int) int {
	return max(commonPostingFloor, int(commonPostingFraction*float64(docs)))
}

// anyKept reports whether some query token has a posting list no longer
// than cut. When none has — a query whose overlap is nothing but
// corpus-wide stems — TopK walks every present token instead of going
// blind, which is still exactly the scan the pruned path would do. Absent
// tokens (no posting list) do not count as kept: they contribute nothing,
// so they must not suppress that fallback.
func (ix *Index) anyKept(q model.Signature, cut int) bool {
	for _, t := range q.Tokens {
		if n := len(ix.post[t]); n > 0 && n <= cut {
			return true
		}
	}
	return false
}

// TopK retrieves the top k candidates for the query signature: every
// document on a kept token's posting list, re-ranked by exact affinity,
// descending, ties broken by key. k <= 0 returns every survivor. The
// result is deterministic regardless of maintenance interleaving.
func (ix *Index) TopK(q model.Signature, k int) ([]Candidate, Stats) {
	if len(ix.byKey) == 0 || len(q.Tokens) == 0 {
		return nil, Stats{}
	}
	cut := stopPostingCut(len(ix.byKey))
	skipCommon := ix.anyKept(q, cut)
	seen := make([]bool, len(ix.docs))
	var out []Candidate
	for _, t := range q.Tokens {
		ps := ix.post[t]
		if skipCommon && len(ps) > cut {
			continue
		}
		for _, id := range ps {
			if seen[id] {
				continue
			}
			seen[id] = true
			// The exact re-rank: a literal Affinity call over the full
			// bags, so a survivor's score is identical to the pruned path's
			// no matter what the stop-posting cut skipped during discovery.
			d := &ix.docs[id]
			out = append(out, Candidate{Key: d.key, Affinity: q.Affinity(d.sig)})
		}
	}
	st := Stats{Scored: len(out)}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Affinity != out[j].Affinity {
			return out[i].Affinity > out[j].Affinity
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out, st
}
