// Package index implements the repository's sharded token inverted index:
// the sublinear candidate-generation stage of retrieval. Where signature
// pruning (the registry's pruned strategy) still computes an affinity against every
// stored schema — O(n) per query — the index inverts the token bags once,
// at registration: each normalized signature token maps to a posting list
// of the schemas containing it, so a query only ever touches schemas that
// share at least one token with it.
//
// Retrieval is the classic two-stage funnel:
//
//  1. Accumulate: every query token's posting list is walked once,
//     accumulating the weighted token overlap (query weight × posting
//     weight, model.Signature weights) and the raw hit count per posting.
//     Schemas sharing no token are never touched, and query tokens whose
//     posting list covers a large fraction of a shard (corpus-wide stems
//     like "date" or "name") are skipped as discriminating nothing —
//     the stop-posting cut that keeps the survivor set proportional to
//     genuine overlap instead of collapsing to the whole repository.
//  2. Re-rank: the accumulator's survivors are re-ranked by the exact
//     signature affinity (a literal model.Signature.Affinity call —
//     identical to the score the pruned path uses, skipped tokens and
//     all), descending, ties broken by key, and truncated to the
//     candidate budget.
//
// The caller (the registry's indexed strategy) then runs the full tree match on the
// returned candidates only. A schema whose only overlap with the query is
// skipped common tokens is unreachable — by construction such a schema's
// token Jaccard is low, and the recall trade is measured, not assumed
// (cupidbench asserts recall@10 >= 0.98 vs the exact scan on the
// 1-vs-2000 corpus).
//
// The index is sharded N ways by document: a schema's resident shard is
// chosen by an FNV-1a hash of its content fingerprint, so each shard is a
// complete mini-index over its subset of schemas and both maintenance
// (Upsert/Remove lock one shard) and retrieval (every shard accumulates
// independently, fanned over the internal/par pool, results merged once)
// scale across cores. A separate key directory, sharded by key hash, maps
// a registry name to its resident shard so replacing a schema under the
// same name finds — and evicts — the old posting set even though new
// content hashes to a different shard.
//
// The index is maintained strictly incrementally and is never persisted:
// the durable registry rebuilds it deterministically by re-registering the
// snapshot's documents on recovery. Determinism holds by construction —
// signature token bags are sorted and deduplicated with stable weights, a
// document's accumulator sums are accumulated in query-token order
// regardless of posting-list order, and the final ordering breaks ties by
// key — so any interleaving of Upsert/Remove that reaches the same entry
// set yields the same TopK as an index built from scratch (asserted by the
// property tests).
package index

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/par"
)

// DefaultShards is the shard count New uses for n <= 0: enough to spread
// registration and retrieval across the worker pool on typical core
// counts without fragmenting small repositories.
const DefaultShards = 16

// posting is one document's entry in a token's posting list: the
// document's shard-local id and the token's stable weight in that
// document's signature.
type posting struct {
	id     uint32
	weight float64
}

// docInfo is the per-document record a shard keeps: the registry key and
// the full signature (the token bag drives posting removal; the whole
// signature serves the exact affinity re-rank).
type docInfo struct {
	key string
	sig model.Signature
}

// shard is one doc-partition of the index. All its state is guarded by
// its own RWMutex: maintenance takes the write lock, retrieval the read lock,
// and different shards never contend.
type shard struct {
	mu    sync.RWMutex
	next  uint32
	free  []uint32
	docs  map[uint32]docInfo
	byKey map[string]uint32 // registry key → shard-local id, for O(1) eviction
	post  map[string][]posting
}

// dirShard is one partition of the key directory, mapping a registry key
// to the doc shard its current content lives in. Its mutex also
// serializes maintenance per key: Upsert/Remove of the same key always
// lock the same dirShard first, so a replace can never interleave with a
// concurrent remove of the same key.
type dirShard struct {
	mu  sync.Mutex
	loc map[string]int // key → doc-shard index
}

// Index is the sharded inverted index. All methods are safe for
// concurrent use.
type Index struct {
	shards []shard
	dir    []dirShard
	// dfs is the token-hash-sharded document-frequency table behind
	// ProbeStats: df[t] = number of indexed documents whose signature
	// contains token t, maintained incrementally alongside the posting
	// lists (stats.go).
	dfs []dfShard
	// ndocs mirrors Len as an atomic counter so ProbeStats can read the
	// corpus size without walking the directory shards.
	ndocs atomic.Int64
}

// New builds an empty index with the given shard count (DefaultShards
// for n <= 0).
func New(shards int) *Index {
	if shards <= 0 {
		shards = DefaultShards
	}
	ix := &Index{shards: make([]shard, shards), dir: make([]dirShard, shards), dfs: make([]dfShard, shards)}
	for i := range ix.shards {
		ix.shards[i].docs = map[uint32]docInfo{}
		ix.shards[i].byKey = map[string]uint32{}
		ix.shards[i].post = map[string][]posting{}
	}
	for i := range ix.dir {
		ix.dir[i].loc = map[string]int{}
	}
	for i := range ix.dfs {
		ix.dfs[i].df = map[string]int{}
	}
	return ix
}

// Hash32 is the 32-bit FNV-1a hash — tiny, allocation-free, and good
// enough to spread fingerprints (already uniform hashes) and keys across
// shards. Exported because the registry places its own map shards with
// the same function; keeping one implementation keeps the two sharding
// schemes from drifting apart.
func Hash32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Upsert indexes the signature under key, evicting any previous content
// indexed under the same key. The resident shard is chosen by the content
// fingerprint, so replacing a schema may move it between shards; the key
// directory tracks the move.
func (ix *Index) Upsert(key, fingerprint string, sig model.Signature) {
	d := &ix.dir[Hash32(key)%uint32(len(ix.dir))]
	target := int(Hash32(fingerprint) % uint32(len(ix.shards)))
	d.mu.Lock()
	defer d.mu.Unlock()
	if old, ok := d.loc[key]; ok {
		if oldSig, had := ix.shards[old].remove(key); had {
			ix.dfUpdate(oldSig, -1)
		}
	} else {
		ix.ndocs.Add(1)
	}
	ix.shards[target].add(key, sig)
	ix.dfUpdate(sig, +1)
	d.loc[key] = target
}

// Remove drops the document indexed under key, reporting whether it was
// indexed.
func (ix *Index) Remove(key string) bool {
	d := &ix.dir[Hash32(key)%uint32(len(ix.dir))]
	d.mu.Lock()
	defer d.mu.Unlock()
	old, ok := d.loc[key]
	if !ok {
		return false
	}
	if oldSig, had := ix.shards[old].remove(key); had {
		ix.dfUpdate(oldSig, -1)
	}
	delete(d.loc, key)
	ix.ndocs.Add(-1)
	return true
}

// Len reports the number of indexed documents.
func (ix *Index) Len() int {
	n := 0
	for i := range ix.dir {
		ix.dir[i].mu.Lock()
		n += len(ix.dir[i].loc)
		ix.dir[i].mu.Unlock()
	}
	return n
}

// add inserts the document into this shard's docs and posting lists.
func (s *shard) add(key string, sig model.Signature) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var id uint32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = s.next
		s.next++
	}
	s.docs[id] = docInfo{key: key, sig: sig}
	s.byKey[key] = id
	for i, t := range sig.Tokens {
		s.post[t] = append(s.post[t], posting{id: id, weight: sig.Weight(i)})
	}
}

// remove deletes the document registered in this shard under key, along
// with every posting it contributed, returning the removed signature so
// the caller can decrement its tokens' document frequencies. Posting
// lists are unordered (the accumulator is order-independent per
// document), so eviction is a swap-remove.
func (s *shard) remove(key string) (model.Signature, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, found := s.byKey[key]
	if !found {
		return model.Signature{}, false
	}
	delete(s.byKey, key)
	for _, t := range s.docs[id].sig.Tokens {
		ps := s.post[t]
		for i := range ps {
			if ps[i].id == id {
				ps[i] = ps[len(ps)-1]
				ps = ps[:len(ps)-1]
				break
			}
		}
		if len(ps) == 0 {
			delete(s.post, t)
		} else {
			s.post[t] = ps
		}
	}
	sig := s.docs[id].sig
	delete(s.docs, id)
	s.free = append(s.free, id)
	return sig, true
}

// Candidate is one retrieval survivor: a document sharing at least one
// token with the query, scored for the final candidate ranking.
type Candidate struct {
	// Key is the registry key the document was indexed under.
	Key string
	// Affinity is the exact signature affinity (model.Signature.Affinity)
	// between the query and this document — the re-rank score, identical
	// to what the pruned path would have computed.
	Affinity float64
	// Overlap is the accumulated weighted token overlap (Σ query weight ×
	// posting weight over shared accumulated tokens) — the stage-1
	// discovery evidence. Tokens dropped by the stop-posting cut do not
	// contribute.
	Overlap float64
	// Hits is the number of distinct shared accumulated tokens (same cut
	// caveat as Overlap; the Affinity re-rank always sees the full bags).
	Hits int
}

// Stats reports what one TopK call did, for observability (the server
// surfaces it as candidates_scored).
type Stats struct {
	// Scored is the number of accumulator survivors — documents sharing at
	// least one token with the query, each of which received an exact
	// affinity score. The gap between Scored and the repository size is
	// the work the inverted index never did.
	Scored int
}

// accum is one document's accumulator cell.
type accum struct {
	hits    int
	overlap float64
}

// Stop-posting cut: a query token is skipped in a shard when its posting
// list exceeds both an absolute floor (small shards never skip — tiny
// repositories must behave exactly like a scan) and a fraction of the
// shard's documents (a token most of the shard contains separates
// nothing). Both tests are pure functions of the shard's current entry
// set, so skipping is deterministic and identical for an incrementally
// maintained and a from-scratch index.
const (
	commonPostingFloor    = 32
	commonPostingFraction = 0.25
)

// commonCutoff returns the posting-list length above which a token
// counts as common in this shard; callers hold at least a read lock.
func (s *shard) commonCutoff() int {
	frac := int(commonPostingFraction * float64(len(s.docs)))
	if frac < commonPostingFloor {
		return commonPostingFloor
	}
	return frac
}

// TopK retrieves the top k candidates for the query signature: weighted
// token overlap accumulated per posting, then the exact affinity re-rank
// over the accumulator's survivors, descending, ties broken by key.
// k <= 0 returns every survivor. Shards accumulate independently over the
// internal/par pool; the result is deterministic regardless of worker
// count or maintenance interleaving.
func (ix *Index) TopK(q model.Signature, k int) ([]Candidate, Stats) {
	perShard := make([][]Candidate, len(ix.shards))
	par.For(len(ix.shards), func(i int) {
		perShard[i] = ix.shards[i].survivors(q)
	})
	var out []Candidate
	for _, cs := range perShard {
		out = append(out, cs...)
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

// survivors accumulates the query against one shard and scores every
// document sharing at least one accumulated token. Accumulation per
// document happens in query-token order (the outer loop), so sums are
// bit-identical no matter how posting lists are ordered internally.
func (s *shard) survivors(q model.Signature) []Candidate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.docs) == 0 || len(q.Tokens) == 0 {
		return nil
	}
	// Stop-posting cut, with a guard: if every query token *present in
	// this shard* is common (a query whose overlap here is nothing but
	// corpus-wide stems), skipping them all would hide the shard entirely
	// — accumulate everything instead, which is still exactly the scan
	// the pruned path would do. Absent tokens (empty posting list) do not
	// count as kept: they contribute nothing, so they must not suppress
	// the fallback.
	cut := s.commonCutoff()
	anyKept := false
	for _, t := range q.Tokens {
		if n := len(s.post[t]); n > 0 && n <= cut {
			anyKept = true
			break
		}
	}
	acc := make(map[uint32]accum)
	for i, t := range q.Tokens {
		ps, ok := s.post[t]
		if !ok {
			continue
		}
		if anyKept && len(ps) > cut {
			continue
		}
		qw := q.Weight(i)
		for _, p := range ps {
			a := acc[p.id]
			a.hits++
			a.overlap += qw * p.weight
			acc[p.id] = a
		}
	}
	if len(acc) == 0 {
		return nil
	}
	out := make([]Candidate, 0, len(acc))
	for id, a := range acc {
		d := s.docs[id]
		// The exact re-rank: a literal Affinity call over the full bags,
		// so a survivor's score is identical to the pruned path's no
		// matter what the stop-posting cut skipped during discovery.
		out = append(out, Candidate{
			Key:      d.key,
			Affinity: q.Affinity(d.sig),
			Overlap:  a.overlap,
			Hits:     a.hits,
		})
	}
	return out
}
