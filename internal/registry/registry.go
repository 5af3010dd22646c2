// Package registry implements the prepared-schema repository: a
// concurrency-safe store of core.Prepared artifacts that a long-lived
// service (cmd/cupidd) registers schemas into once and then matches
// incoming schemas against many times. This is the workload the paper
// frames Cupid for — a matching component that a tool repeatedly applies
// against a repository of known schemas — made cheap by paying the
// per-schema cost (validation, tree expansion, linguistic analysis) at
// registration instead of on every match.
//
// Entries are keyed by name and content fingerprint (model.Fingerprint):
// re-registering identical content under the same name is an idempotent
// no-op, while changed content replaces the stale entry. Matching fans
// one-vs-all out over the internal/par worker pool and returns results
// ranked by score; the ranking is deterministic regardless of worker
// count (asserted by the -race determinism tests).
//
// Retrieval goes through one planned entry point (Match/MatchContext,
// planner.go): a stats-driven planner picks per probe between the
// strategies — the exhaustive scan, the linear signature-pruned scan and
// the inverted-index path — from cheap statistics the index maintains (index.ProbeStats), and sizes the candidate budget to
// the probe's reachable pool. PlanOptions.Force pins one strategy:
//
//   - Indexed retrieval (StrategyIndexed): a token inverted index
//     (internal/index), maintained incrementally on every
//     Register/Replace/Remove, generates candidates sublinearly — only
//     entries sharing at least one normalized signature token with the
//     query are ever touched — then re-ranks them by exact signature
//     affinity and runs the full tree match on the survivors.
//   - Candidate pruning (StrategyPruned): the linear-scan predecessor — an
//     affinity (size similarity + normalized token Jaccard,
//     model.Signature) computed against *every* entry, full match on the
//     top candidate fraction. Still exact over its candidate set, and the
//     baseline the indexed path is benchmarked against.
//   - The exact full scan (StrategyExact), also spelled MatchAll.
//
// Alongside those, the third serving layer:
//   - Persistence (Persistent, Store, the write-ahead journal in
//     wal.go): each mutation's source document is made durable by
//     appending one checksummed record to an append-only journal, with a
//     group-commit loop batching concurrent writers into shared fsyncs
//     and a background compactor folding the journal tail into versioned
//     JSON-lines snapshot generations (atomic write+rename, fsync).
//     Recovery is newest-consistent-snapshot + ordered tail replay with
//     torn-tail truncation. docs/PERSISTENCE.md is the byte-level
//     contract. The inverted index is never persisted:
//     recovery re-registers every document, rebuilding it
//     deterministically.
//
// The repository itself is one name-keyed entry map and one inverted
// index behind one sync.RWMutex (Registry): registrations through the
// durable layer are already serialized by its own lock, and the time a request
// spends under the read lock is a map lookup or one index walk, while
// the per-candidate tree matches run over the internal/par worker pool
// outside any lock.
package registry

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/instance"
	"repro/internal/model"
	"repro/internal/par"
)

// Entry is one registered schema: its repository name, content
// fingerprint, and the prepared matching artifact. Entries are immutable;
// re-registration replaces the whole entry.
type Entry struct {
	// Name is the repository key the schema was registered under.
	Name string
	// Fingerprint is the content hash of the schema (model.Fingerprint).
	Fingerprint string
	// Prepared is the reusable matching artifact.
	Prepared *core.Prepared
}

// Registry is the concurrency-safe prepared-schema repository. All
// methods may be called from any number of goroutines. One RWMutex guards
// the name-keyed entry map and the token inverted index (internal/index)
// together: Register/Remove take the write lock only around the map+index
// mutation (preparation and signature derivation run outside any lock),
// reads take the read lock, and a retrieval reads the index and the map
// under one read lock, so a candidate the index returns is always a
// current entry. MatchAll works on a snapshot of the entries, so matching
// never blocks registration and vice versa.
//
// The index is maintained incrementally: every Register (insert or
// replace) upserts the entry's signature token bag, every Remove evicts
// it, in the same critical section as the map change, so the index can
// never disagree with the map about a name's current content.
type Registry struct {
	matcher *core.Matcher
	mu      sync.RWMutex
	byName  map[string]*Entry
	idx     *index.Index
}

// New builds a registry with its own Matcher for the given configuration.
func New(cfg core.Config) (*Registry, error) {
	m, err := core.NewMatcher(cfg)
	if err != nil {
		return nil, err
	}
	return NewWithMatcher(m), nil
}

// NewWithMatcher builds a registry around an existing Matcher. Every
// schema registered is prepared by (and every match runs on) this matcher.
func NewWithMatcher(m *core.Matcher) *Registry {
	return &Registry{matcher: m, byName: map[string]*Entry{}, idx: index.New(0)}
}

// Matcher returns the registry's matcher, e.g. to Prepare an incoming
// schema for MatchAll.
func (r *Registry) Matcher() *core.Matcher { return r.matcher }

// Register prepares the schema and stores it under the given name (the
// schema's own name when empty). Registering content identical to the
// current entry of that name returns the existing entry without
// re-preparing and reports created=false; new names and changed content
// store a fresh entry and report created=true. The created flag is
// decided under the registry's write lock, so concurrent registrations agree
// on which call actually created the entry.
func (r *Registry) Register(name string, s *model.Schema) (e *Entry, created bool, err error) {
	return r.RegisterInstances(name, s, nil)
}

// RegisterInstances is Register with sampled instance data attached: the
// schema is prepared with per-leaf value profiles
// (Matcher.PrepareWithInstances) that sharpen leaf matching against other
// profile-carrying entries, and the entry fingerprint covers schema AND
// profiles, so re-registering the same schema with changed samples
// replaces the entry while identical samples stay idempotent. Empty
// samples degrade to plain Register — including its cheap
// fingerprint-before-Prepare idempotence fast path, which instance
// registrations skip (profile resolution needs the prepared artifact).
func (r *Registry) RegisterInstances(name string, s *model.Schema, samples instance.Samples) (e *Entry, created bool, err error) {
	if s == nil {
		return nil, false, fmt.Errorf("registry: nil schema")
	}
	if name == "" {
		name = s.Name
	}
	if name == "" {
		return nil, false, fmt.Errorf("registry: schema has no name; register with an explicit one")
	}
	if len(samples) == 0 {
		fp := model.Fingerprint(s)
		if cur, ok := r.Get(name); ok && cur.Fingerprint == fp {
			return cur, false, nil
		}
		p, err := r.matcher.Prepare(s)
		if err != nil {
			return nil, false, fmt.Errorf("registry: preparing %q: %w", name, err)
		}
		return r.commit(name, fp, p)
	}
	p, err := r.matcher.PrepareWithInstances(s, samples)
	if err != nil {
		return nil, false, fmt.Errorf("registry: preparing %q: %w", name, err)
	}
	return r.commit(name, p.Fingerprint(), p)
}

// commit stores a freshly prepared entry under the write lock,
// keeping whichever identical-fingerprint entry a racing registration may
// have landed first (idempotence).
func (r *Registry) commit(name, fp string, p *core.Prepared) (*Entry, bool, error) {
	// Derive the retrieval signature outside the lock: the token-bag sweep
	// is the expensive part of index maintenance, and Signature() caches.
	sig := p.Signature()
	e := &Entry{Name: name, Fingerprint: fp, Prepared: p}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.byName[name]; ok && cur.Fingerprint == fp {
		return cur, false, nil
	}
	r.byName[name] = e
	r.idx.Upsert(name, fp, sig)
	return e, true, nil
}

// Get returns the entry registered under name.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[name]
	return e, ok
}

// Remove deletes the entry registered under name, reporting whether it
// existed.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.byName[name]
	if ok {
		delete(r.byName, name)
		r.idx.Remove(name)
	}
	return ok
}

// Len returns the number of registered schemas.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// List returns the entries sorted by name.
func (r *Registry) List() []*Entry {
	r.mu.RLock()
	out := r.entriesLocked()
	r.mu.RUnlock()
	sortByName(out)
	return out
}

// entriesLocked returns every entry, unordered; the caller holds r.mu.
func (r *Registry) entriesLocked() []*Entry {
	out := make([]*Entry, 0, len(r.byName))
	for _, e := range r.byName {
		out = append(out, e)
	}
	return out
}

// sortByName orders entries by name, the order List returns.
func sortByName(es []*Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].Name < es[j].Name })
}

// Ranked is one repository schema's result in a MatchAll run.
type Ranked struct {
	// Entry is the repository entry the source was matched against (the
	// match target).
	Entry *Entry
	// Result is the full match output (source = the MatchAll argument,
	// target = Entry's schema). Ranking itself needs only the score, so
	// Result is materialized for the returned entries only: every Ranked a
	// retrieval call returns carries it, while the candidates it ranked
	// below the top K never had one built. The one exception is an entry
	// whose rendered result PlanOptions.Memo already holds: its Result is
	// nil.
	Result *core.Result
	// Score is the ranking score; see Score.
	Score float64
}

// PairScore is one candidate's ranking score, keyed by the content
// fingerprint of its entry.
type PairScore struct {
	// Fingerprint is the entry's content fingerprint (Entry.Fingerprint).
	Fingerprint string
	// Score is the source's ranking score against that content.
	Score float64
}

// Memo carries per-pair work from one ranking of a source to the next
// ranking of the same source (PlanOptions.Memo). Under one matcher, a
// pair's score and its 1:n leaf mapping are pure functions of the source
// and the entry's content, and the entry fingerprint covers that content
// (schema name, so every rendered path, and instance profiles
// included): a memo keyed by fingerprint is exact by construction, however
// the repository changed in between. Score and Rendered may be called
// from several goroutines at once; Record is called once per ranking,
// from the caller's goroutine, before any Rendered call.
type Memo interface {
	// Score returns the source's score against the content fp, if the
	// memo holds it; a candidate it holds is not matched.
	Score(fp string) (float64, bool)
	// Rendered reports whether the caller already holds the source's
	// rendered result against fp; a returned entry it holds is not
	// materialized, and its Ranked.Result is nil.
	Rendered(fp string) bool
	// Record hands over every candidate's score, in no particular order,
	// for the memo of the next ranking.
	Record(scores []PairScore)
}

// RankKey returns the entry's score, name and fingerprint: the key a
// merge of per-shard rankings orders by.
func (r Ranked) RankKey() (float64, string, string) {
	return r.Score, r.Entry.Name, r.Entry.Fingerprint
}

// Score ranks a match result for one-vs-all retrieval: the sum of the
// leaf mapping elements' weighted similarities, normalized by the larger
// of the two trees' leaf counts. It rewards both strength (high wsim) and
// coverage (many mapped leaves) and lies in [0,1] for default parameters
// (each leaf wsim is at most 1 and each target leaf maps at most once).
func Score(res *core.Result) float64 {
	leaves := res.SourceTree.NumLeaves()
	if n := res.TargetTree.NumLeaves(); n > leaves {
		leaves = n
	}
	if leaves == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range res.Mapping.Leaves {
		sum += e.WSim
	}
	return sum / float64(leaves)
}

// MatchAll matches one prepared source schema against every registered
// entry, fanning the one-vs-all sweep out over the internal/par worker
// pool, and returns the results ranked by descending score (ties broken
// by name). topK truncates the ranking; topK <= 0 returns all. The source
// must have been prepared by the registry's matcher.
//
// The sweep runs over an immutable snapshot of the repository: entries
// registered or removed concurrently do not affect an in-flight call, and
// the ranking is deterministic for a given snapshot regardless of worker
// count. It is the shorthand for Match with PlanOptions.Force =
// StrategyExact; MatchContext adds cancellation.
func (r *Registry) MatchAll(src *core.Prepared, topK int) ([]Ranked, error) {
	ranked, _, err := r.Match(src, topK, PlanOptions{Force: StrategyExact})
	return ranked, err
}

// rank matches src against every given entry (fanned over the worker
// pool, canceled cooperatively per candidate via ctx) and returns the
// descending-score ranking, ties broken by name, truncated to topK (<= 0
// keeps all). When the ranking drops entries, candidates are scored with
// the score-only kernel and only the returned top K get a full result.
// A candidate whose score memo holds is not matched, and a returned
// entry whose rendered result memo holds is not materialized; memo
// receives every candidate's score, and rank returns how many it held.
func (r *Registry) rank(ctx context.Context, entries []*Entry, src *core.Prepared, topK int, memo Memo) ([]Ranked, int, error) {
	ranked, reused, err := r.score(ctx, entries, src, topK <= 0 || topK >= len(entries), memo)
	if err != nil {
		return nil, 0, err
	}
	if memo != nil {
		scores := make([]PairScore, len(ranked))
		for i, rk := range ranked {
			scores[i] = PairScore{Fingerprint: rk.Entry.Fingerprint, Score: rk.Score}
		}
		memo.Record(scores)
	}
	ranked, err = r.top(ctx, src, ranked, topK, memo)
	return ranked, reused, err
}

// score runs one match per entry, fanned over the worker pool. Unless full
// is set, or the configuration's leaf score depends on the whole pipeline
// (core.Matcher.ScoreOnly), it runs core.Matcher.MatchScore — TreeMatch
// and the leaf score, nothing kept — and leaves Result nil; otherwise it
// runs MatchPrepared and keeps the result. An entry whose score memo
// holds takes that score and no match; score returns how many did. The
// returned order is not the entries' order: ranking sorts it.
func (r *Registry) score(ctx context.Context, entries []*Entry, src *core.Prepared, full bool, memo Memo) ([]Ranked, int, error) {
	full = full || !r.matcher.ScoreOnly()
	out := make([]Ranked, len(entries))
	// The entries to match fill out from the front, memo hits from the
	// back.
	n, back := 0, len(out)
	for _, e := range entries {
		if memo != nil {
			if s, ok := memo.Score(e.Fingerprint); ok {
				back--
				out[back] = Ranked{Entry: e, Score: s}
				continue
			}
		}
		out[n].Entry = e
		n++
	}
	err := forEach(ctx, n, func(i int) error {
		rk := &out[i]
		if full {
			return r.materialize(src, rk)
		}
		s, err := r.matcher.MatchScore(src, rk.Entry.Prepared)
		if err != nil {
			return fmt.Errorf("registry: matching against %q: %w", rk.Entry.Name, err)
		}
		rk.Score = s
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, len(out) - n, nil
}

// materialize runs the full match of src against rk's entry and records
// its result and score.
func (r *Registry) materialize(src *core.Prepared, rk *Ranked) error {
	res, err := r.matcher.MatchPrepared(src, rk.Entry.Prepared)
	if err != nil {
		return fmt.Errorf("registry: matching against %q: %w", rk.Entry.Name, err)
	}
	rk.Result, rk.Score = res, Score(res)
	return nil
}

// forEach runs fn(i) for every i in [0, n) over the worker pool, canceled
// cooperatively via ctx, and returns ctx's error or else the first error
// by index.
func forEach(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	if err := par.ForCtx(ctx, n, func(i int) { errs[i] = fn(i) }); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rankedBefore is the ranking order: descending score, ties broken by name.
func rankedBefore(a, b Ranked) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Entry.Name < b.Entry.Name
}

// top sorts scored candidates into ranking order and returns the first
// topK (<= 0 keeps all) in a slice of their own — a cached ranking never
// pins the candidates it dropped — materializing (in parallel) every
// returned entry scored without a result, unless memo holds its rendered
// result.
func (r *Registry) top(ctx context.Context, src *core.Prepared, ranked []Ranked, topK int, memo Memo) ([]Ranked, error) {
	sort.SliceStable(ranked, func(i, j int) bool { return rankedBefore(ranked[i], ranked[j]) })
	if topK > 0 && topK < len(ranked) {
		ranked = append([]Ranked(nil), ranked[:topK]...)
	}
	err := forEach(ctx, len(ranked), func(i int) error {
		if ranked[i].Result != nil || memo != nil && memo.Rendered(ranked[i].Entry.Fingerprint) {
			return nil
		}
		return r.materialize(src, &ranked[i])
	})
	if err != nil {
		return nil, err
	}
	return ranked, nil
}

// pruneByAffinity is the pruned path's candidate-generation stage: rank
// every entry by signature affinity — size similarity blended with
// normalized name/description token Jaccard (model.Signature), both
// derived from the linguistic analysis cached at registration — against
// src (fanned over the worker pool, ties broken by name so pruning is
// deterministic) and return the top limit entries. The caller has already
// established limit < len(entries).
func (r *Registry) pruneByAffinity(ctx context.Context, entries []*Entry, src *core.Prepared, limit int) ([]*Entry, error) {
	affs := make([]float64, len(entries))
	srcSig := src.Signature()
	if err := par.ForCtx(ctx, len(entries), func(i int) {
		affs[i] = srcSig.Affinity(entries[i].Prepared.Signature())
	}); err != nil {
		return nil, err
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		if affs[order[i]] != affs[order[j]] {
			return affs[order[i]] > affs[order[j]]
		}
		return entries[order[i]].Name < entries[order[j]].Name
	})
	cands := make([]*Entry, limit)
	for i := range cands {
		cands[i] = entries[order[i]]
	}
	return cands, nil
}
