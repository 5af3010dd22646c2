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
// strategies — the exhaustive scan, the linear signature-pruned scan, the
// inverted-index path and the family route — from cheap statistics the
// index maintains (index.ProbeStats), and sizes the candidate budget to
// the probe's reachable pool. PlanOptions.Force pins one strategy:
//
//   - Indexed retrieval (StrategyIndexed): a sharded token inverted index
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
// The repository itself is sharded: entries live in N name-keyed map
// shards (FNV-1a on the name) with per-shard locks, and the index shards
// documents by content fingerprint, so registration and retrieval both
// scale across the internal/par worker pool instead of serializing on one
// mutex.
package registry

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

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

// regShards is the registry's map shard count: entries are spread over
// this many independently locked name-keyed maps so concurrent
// registrations (and the index maintenance they trigger) contend only
// when they hash to the same shard.
const regShards = 16

// regShard is one partition of the repository: a name-keyed entry map
// under its own lock.
type regShard struct {
	mu     sync.RWMutex
	byName map[string]*Entry
}

// Registry is the concurrency-safe prepared-schema repository. All
// methods may be called from any number of goroutines; Register/Remove
// take one shard's write lock only around the map+index mutation
// (preparation and signature derivation run outside any lock), and
// MatchAll works on an immutable snapshot, so matching never blocks
// registration and vice versa.
//
// Alongside the entry maps the registry maintains a sharded token
// inverted index (internal/index) incrementally: every Register (insert
// or replace) upserts the entry's signature token bag, every Remove
// evicts it. Same-name mutations are serialized by the name's shard lock,
// so the index can never disagree with the map about a name's current
// content; the indexed strategy consumes it.
type Registry struct {
	matcher *core.Matcher
	idx     *index.Index
	shards  [regShards]regShard

	// families is the installed corpus clustering (families.go); nil until
	// SetFamilies. mutations counts committed map mutations (inserts,
	// replacements, removals) — the staleness clock an installed clustering
	// is judged against.
	families  atomic.Pointer[familyView]
	mutations atomic.Uint64
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
	r := &Registry{matcher: m, idx: index.New(regShards)}
	for i := range r.shards {
		r.shards[i].byName = map[string]*Entry{}
	}
	return r
}

// shard returns the map shard owning name (index.Hash32, the same FNV-1a
// the inverted index shards by).
func (r *Registry) shard(name string) *regShard {
	return &r.shards[index.Hash32(name)%regShards]
}

// Matcher returns the registry's matcher, e.g. to Prepare an incoming
// schema for MatchAll.
func (r *Registry) Matcher() *core.Matcher { return r.matcher }

// Register prepares the schema and stores it under the given name (the
// schema's own name when empty). Registering content identical to the
// current entry of that name returns the existing entry without
// re-preparing and reports created=false; new names and changed content
// store a fresh entry and report created=true. The created flag is
// decided under the name's shard lock, so concurrent registrations agree
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
		sh := r.shard(name)
		sh.mu.RLock()
		cur, ok := sh.byName[name]
		sh.mu.RUnlock()
		if ok && cur.Fingerprint == fp {
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

// commit stores a freshly prepared entry under the name's shard lock,
// keeping whichever identical-fingerprint entry a racing registration may
// have landed first (idempotence).
func (r *Registry) commit(name, fp string, p *core.Prepared) (*Entry, bool, error) {
	// Derive the retrieval signature outside the lock: the token-bag sweep
	// is the expensive part of index maintenance, and Signature() caches.
	sig := p.Signature()
	e := &Entry{Name: name, Fingerprint: fp, Prepared: p}
	sh := r.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.byName[name]; ok && cur.Fingerprint == fp {
		return cur, false, nil
	}
	sh.byName[name] = e
	// Index upsert under the same shard lock: same-name map and index
	// mutations commit in the same order, so a replace can never leave the
	// index pointing at evicted content.
	r.idx.Upsert(name, fp, sig)
	r.mutations.Add(1)
	return e, true, nil
}

// Get returns the entry registered under name.
func (r *Registry) Get(name string) (*Entry, bool) {
	sh := r.shard(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.byName[name]
	return e, ok
}

// Remove deletes the entry registered under name, reporting whether it
// existed.
func (r *Registry) Remove(name string) bool {
	sh := r.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.byName[name]
	if ok {
		delete(sh.byName, name)
		r.idx.Remove(name)
		r.mutations.Add(1)
	}
	return ok
}

// Len returns the number of registered schemas.
func (r *Registry) Len() int {
	n := 0
	for i := range r.shards {
		r.shards[i].mu.RLock()
		n += len(r.shards[i].byName)
		r.shards[i].mu.RUnlock()
	}
	return n
}

// List returns the entries sorted by name.
func (r *Registry) List() []*Entry {
	out := make([]*Entry, 0, r.Len())
	for i := range r.shards {
		r.shards[i].mu.RLock()
		for _, e := range r.shards[i].byName {
			out = append(out, e)
		}
		r.shards[i].mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
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
	// below the top K never had one built.
	Result *core.Result
	// Score is the ranking score; see Score.
	Score float64
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
func (r *Registry) rank(ctx context.Context, entries []*Entry, src *core.Prepared, topK int) ([]Ranked, error) {
	ranked, err := r.score(ctx, entries, src, topK <= 0 || topK >= len(entries))
	if err != nil {
		return nil, err
	}
	return r.top(ctx, src, ranked, topK)
}

// score runs one match per entry, fanned over the worker pool. Unless full
// is set, or the configuration's leaf score depends on the whole pipeline
// (core.Matcher.ScoreOnly), it runs core.Matcher.MatchScore — TreeMatch
// and the leaf score, nothing kept — and leaves Result nil; otherwise it
// runs MatchPrepared and keeps the result.
func (r *Registry) score(ctx context.Context, entries []*Entry, src *core.Prepared, full bool) ([]Ranked, error) {
	full = full || !r.matcher.ScoreOnly()
	out := make([]Ranked, len(entries))
	err := forEach(ctx, len(entries), func(i int) error {
		rk := &out[i]
		rk.Entry = entries[i]
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
		return nil, err
	}
	return out, nil
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
// returned entry scored without a result.
func (r *Registry) top(ctx context.Context, src *core.Prepared, ranked []Ranked, topK int) ([]Ranked, error) {
	sort.SliceStable(ranked, func(i, j int) bool { return rankedBefore(ranked[i], ranked[j]) })
	if topK > 0 && topK < len(ranked) {
		ranked = append([]Ranked(nil), ranked[:topK]...)
	}
	err := forEach(ctx, len(ranked), func(i int) error {
		if ranked[i].Result != nil {
			return nil
		}
		return r.materialize(src, &ranked[i])
	})
	if err != nil {
		return nil, err
	}
	return ranked, nil
}

// PruneOptions sizes the candidate set the pruned and indexed strategies
// let through to the full tree match. The candidate budget for a repository of n entries is
//
//	max(MinCandidates, ceil(Fraction·n), topK)
//
// so pruning only engages once the repository outgrows the floor, and a
// caller asking for more results than the budget always gets at least topK
// candidates matched.
type PruneOptions struct {
	// Fraction of the repository that reaches the full match, in (0,1].
	Fraction float64
	// MinCandidates is the floor below which pruning is pointless: small
	// repositories are scanned exactly.
	MinCandidates int
}

// DefaultPruneOptions keeps the top quarter of the repository, never fewer
// than 16 candidates — the setting cupidbench validates recall@K = 1.0 for
// on its 1-vs-200 corpus.
func DefaultPruneOptions() PruneOptions {
	return PruneOptions{Fraction: 0.25, MinCandidates: 16}
}

// DefaultIndexOptions sizes the indexed strategy's candidate budget: an eighth of
// the repository, never fewer than 16 candidates. The indexed path can
// afford half the pruned path's fraction because its candidates are all
// genuine token-sharers — the pruned path's quarter compensates for
// ranking blindly over every entry, overlap or not. The setting is
// validated empirically like the pruned one: cupidbench's 1-vs-2000
// workload asserts recall@10 >= 0.98 against the exact scan across all
// family probes. Both policies flow through the same Limit function.
func DefaultIndexOptions() PruneOptions {
	return PruneOptions{Fraction: 0.125, MinCandidates: 16}
}

// Limit returns the candidate budget for a repository of n entries: the
// single, shared candidate-floor policy — the pruned and indexed
// retrieval paths both size their candidate set with this function, so the two paths can never drift apart on how many
// entries reach the full tree match.
//
// The fraction is applied with a ceiling, never integer division, so it
// cannot collapse to zero for tiny repositories (¼ of n=2 is 1 candidate,
// not 0). Degenerate options are normalized rather than trusted: a
// Fraction outside (0,1] means "everything" (the zero value is a full
// scan, the safe default), a non-positive MinCandidates floor is lifted
// to 1, and a negative topK counts as 0. n <= 0 always yields 0. The
// returned budget may exceed n — callers treat that as "scan everything".
func (o PruneOptions) Limit(n, topK int) int {
	if n <= 0 {
		return 0
	}
	f := o.Fraction
	if f <= 0 || f > 1 {
		f = 1
	}
	l := int(math.Ceil(f * float64(n)))
	if l < 1 {
		l = 1
	}
	floor := o.MinCandidates
	if floor < 1 {
		floor = 1
	}
	if l < floor {
		l = floor
	}
	if l < topK {
		l = topK
	}
	return l
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
