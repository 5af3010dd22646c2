package serve

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
)

// Options configures a Frontend. The zero value is usable: pools sized
// per PoolOptions defaults, cache disabled, no deadline, degradation at
// the default saturation threshold.
type Options struct {
	// Read sizes the admission pool for match traffic; Write the (smaller,
	// separate) pool for register/delete traffic, so a batch-match storm
	// cannot starve registrations.
	Read, Write PoolOptions
	// CacheCapacity is the match cache's entry budget; <= 0 disables it.
	CacheCapacity int
	// MatchDeadline bounds each match request end to end (queue wait plus
	// scoring); 0 means no deadline.
	MatchDeadline time.Duration
	// DegradeAt is the read-pool saturation (see Pool.Saturation) at or
	// above which match requests shrink their candidate budgets to shed
	// load. 0 means the default (2.0: every slot busy plus a backlog one
	// slot-set deep); negative disables degradation.
	DegradeAt float64
}

// defaultDegradeAt triggers degradation once the read pool holds a full
// slot-set of running work AND at least as much again waiting.
const defaultDegradeAt = 2.0

// Frontend is the serving layer in front of a registry: it admits match
// work through the read pool, register/delete work through the write
// pool, serves repeated matches from the singleflight cache, threads
// deadlines into the registry's context-aware match paths, and shrinks
// candidate budgets when saturated (reported via RetrievalStats.Degraded
// so a load-shed ranking is self-describing).
type Frontend struct {
	reg      *registry.Registry
	read     *Pool
	write    *Pool
	cache    *Cache
	deadline time.Duration
	degrade  float64

	draining atomic.Bool
	degraded atomic.Uint64
	// matched and reused sum RetrievalStats.PairsReused and the pairs
	// actually tree-matched over every computed ranking.
	matched, reused atomic.Uint64
}

// NewFrontend builds a Frontend over reg.
func NewFrontend(reg *registry.Registry, opt Options) *Frontend {
	if opt.Write.Slots <= 0 {
		// Writes are journal-bound, not CPU-bound; a small dedicated pool
		// keeps them admissible under read storms without letting a write
		// storm oversubscribe the group committer.
		opt.Write.Slots = 2
	}
	deg := opt.DegradeAt
	if deg == 0 {
		deg = defaultDegradeAt
	}
	return &Frontend{
		reg:      reg,
		read:     NewPool(opt.Read),
		write:    NewPool(opt.Write),
		cache:    NewCache(opt.CacheCapacity),
		deadline: opt.MatchDeadline,
		degrade:  deg,
	}
}

// Registry returns the backing registry.
func (f *Frontend) Registry() *registry.Registry { return f.reg }

// ReadPool returns the match-traffic admission pool.
func (f *Frontend) ReadPool() *Pool { return f.read }

// WritePool returns the register/delete admission pool.
func (f *Frontend) WritePool() *Pool { return f.write }

// AcquireWrite admits a mutation (register/delete) through the write
// pool. The caller must Invalidate after the mutation commits and before
// acknowledging it.
func (f *Frontend) AcquireWrite(ctx context.Context) (func(), error) {
	if f.draining.Load() {
		return nil, ErrDraining
	}
	return f.write.Acquire(ctx)
}

// Invalidate makes every cached ranking stale: none is served again, and
// each stays only as the per-pair memo of its key's next computation.
// Cached pair matches stay, since no write can change them. Call it
// after every register, replace or remove that changed the repository,
// before acking the client; a re-registration of identical content
// changes nothing and needs none.
func (f *Frontend) Invalidate() { f.cache.Invalidate() }

// BeginDrain stops admitting new work (ErrDraining); in-flight requests
// run to completion.
func (f *Frontend) BeginDrain() { f.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (f *Frontend) Draining() bool { return f.draining.Load() }

// MatchSpec selects a retrieval strategy for MatchBatch, mirroring
// cupidd's -retrieval flag: the zero value (registry.StrategyAuto) lets
// the registry's planner pick per probe, the other strategies force one
// path. TopK is the ranking length requested from the registry (0 = rank
// everything retrieved). Every path runs under the registry's fixed
// candidate budgets, halved when the frontend degrades.
type MatchSpec struct {
	// Retrieval picks the strategy (StrategyAuto plans per probe).
	Retrieval registry.Strategy
	// TopK is the requested ranking length (0 = everything retrieved).
	TopK int
}

// Source is a match source as the frontend caches it: Key is its cache
// identity, and Prepare yields its prepared schema. Prepare runs only
// when the match cache misses, once per singleflight flight, inside the
// match deadline; its error is returned to the caller and every joiner
// and is never cached.
type Source struct {
	// Key identifies the source's content in cache keys.
	Key string
	// Prepare returns the prepared source schema.
	Prepare func() (*core.Prepared, error)
}

// PreparedSource is the source of an already prepared schema — a
// registered entry's, or one the caller prepared itself — keyed by its
// fingerprint. An inline reference's source is keyed by SchemaRef.Key
// instead, and parses the reference in Prepare.
func PreparedSource(p *core.Prepared) Source {
	return Source{Key: p.Fingerprint(), Prepare: func() (*core.Prepared, error) { return p, nil }}
}

// Result is a MatchBatch outcome. Stats is the registry's own
// RetrievalStats for every strategy (exact and pruned included): the
// plan that ran, its inputs, and the budget that produced the ranking —
// recorded on cached entries too, so a cache hit reports the plan of the
// computation it shares. Cached reports the ranking came from the cache
// or a coalesced flight rather than a fresh computation. Results is
// shared when Cached — treat it as immutable.
//
// Results is the ranking as a reply sends it, rendered once when it is
// computed: a cached ranking keeps neither the matches behind it (their
// similarity matrices and analyses) nor a reference into any schema
// tree, and a cache hit renders nothing again.
type Result struct {
	// Results is the scored ranking, rendered for the wire.
	Results []BatchResult
	// Stats describes the retrieval that produced (or originally
	// produced, when Cached) the ranking.
	Stats registry.RetrievalStats
	// SourceName and SourceFingerprint are the name and fingerprint of
	// the prepared source schema the ranking was computed for.
	SourceName, SourceFingerprint string
	// Cached reports a cache hit or coalesced flight.
	Cached bool
}

// MatchBatch ranks the repository against src under spec, going through
// deadline, cache, admission and (when saturated) degradation. The cache
// key is src.Key plus every spec field that can change the ranking;
// registry content is deliberately absent — the entry reads the
// registry's membership, so Invalidate makes it stale instead. A stale
// entry of the key is the memo of its recomputation: planning and
// candidate generation run afresh, and only the candidates whose content
// the stale ranking never scored are matched (registry.Memo). src is
// prepared only on a miss, before admission. Cache hits and coalesced
// joins bypass admission entirely — repeated-query storms are absorbed
// before the pool. Errors: ErrQueueFull/ErrQueueWait (shed), ErrDraining
// (shutdown), ctx errors (caller gave up or deadline hit), src.Prepare's
// error, or a registry error.
func (f *Frontend) MatchBatch(ctx context.Context, src Source, spec MatchSpec) (Result, error) {
	if f.draining.Load() {
		return Result{}, ErrDraining
	}
	ctx, cancel := WithDeadline(ctx, f.deadline)
	defer cancel()
	key := fmt.Sprintf("batch|%s|%d|%s", src.Key, spec.TopK, spec.Retrieval)
	v, shared, err := f.cache.Do(ctx, key, false, func(ctx context.Context, stale any) (any, bool, error) {
		p, err := src.Prepare()
		if err != nil {
			return nil, false, err
		}
		prior, _ := stale.(*batchEntry)
		e, err := f.matchBatchAdmitted(ctx, p, spec, prior)
		if err != nil {
			return nil, false, err
		}
		// Degraded rankings ran under a shrunken budget; caching one would
		// serve it to un-saturated callers that are owed the full budget.
		return e, !e.res.Stats.Degraded, nil
	})
	if err != nil {
		return Result{}, err
	}
	res := v.(*batchEntry).res
	res.Cached = shared
	return res, nil
}

// matchBatchAdmitted is the uncached path: acquire a read slot, decide
// degradation from the pool's saturation, and hand the spec to the
// registry's planned entry point, with prior (nil when there is none)
// as the ranking's memo. Degradation is a planner input
// (PlanOptions.Degraded halves the candidate budgets), not a serve-side
// rewrite of the spec; the returned stats report what actually ran.
func (f *Frontend) matchBatchAdmitted(ctx context.Context, src *core.Prepared, spec MatchSpec, prior *batchEntry) (*batchEntry, error) {
	release, err := f.read.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	degraded := spec.Retrieval != registry.StrategyExact &&
		f.degrade > 0 && f.read.Saturation() >= f.degrade
	memo := &pairMemo{prior: prior}
	ranked, st, err := f.reg.MatchContext(ctx, src, spec.TopK, registry.PlanOptions{
		Force:    spec.Retrieval,
		Degraded: degraded,
		Memo:     memo,
	})
	if err != nil {
		return nil, err
	}
	if st.Degraded {
		f.degraded.Add(1)
	}
	f.matched.Add(uint64(st.CandidatesMatched - st.PairsReused))
	f.reused.Add(uint64(st.PairsReused))
	return memo.entry(Result{
		Results:           memo.results(ranked),
		Stats:             st,
		SourceName:        src.Schema().Name,
		SourceFingerprint: src.Fingerprint(),
	}), nil
}

// batchEntry is what the cache keeps for a /match/batch key: the ranking
// as replies send it, and the score of every candidate it ranked — the
// memo its key's next computation reuses once a write has made it stale.
type batchEntry struct {
	res Result
	// scores holds every candidate's score, sorted by fingerprint, with
	// the position of its rendered result in res.Results (-1 when the
	// ranking did not return it).
	scores []memoScore
}

// memoScore is one row of a batchEntry's score table.
type memoScore struct {
	registry.PairScore
	result int
}

// row returns the index of fp's row in e's score table.
func (e *batchEntry) row(fp string) (int, bool) {
	return slices.BinarySearchFunc(e.scores, fp, func(m memoScore, fp string) int {
		return strings.Compare(m.Fingerprint, fp)
	})
}

// pairMemo is the registry.Memo of one batch computation: it answers
// from prior, the key's stale entry (nil when there is none), and
// collects the new ranking's scores.
type pairMemo struct {
	prior  *batchEntry
	scores []registry.PairScore
}

// find returns fp's row in prior's score table.
func (m *pairMemo) find(fp string) (memoScore, bool) {
	if m.prior == nil {
		return memoScore{}, false
	}
	i, ok := m.prior.row(fp)
	if !ok {
		return memoScore{}, false
	}
	return m.prior.scores[i], true
}

func (m *pairMemo) Score(fp string) (float64, bool) {
	row, ok := m.find(fp)
	return row.Score, ok
}

func (m *pairMemo) Rendered(fp string) bool {
	row, ok := m.find(fp)
	return ok && row.result >= 0
}

func (m *pairMemo) Record(scores []registry.PairScore) { m.scores = scores }

// results renders a ranking for the wire: ResultsOf, with the entries
// the registry did not materialize taking their rendered leaves from
// prior. They are the same bytes, since the leaves are a pure function of
// the source and the entry's content.
func (m *pairMemo) results(ranked []registry.Ranked) []BatchResult {
	out := ResultsOf(ranked)
	for i, rk := range ranked {
		if rk.Result == nil {
			row, _ := m.find(rk.Entry.Fingerprint)
			out[i].Leaves = m.prior.res.Results[row.result].Leaves
		}
	}
	return out
}

// entry builds the cache entry of res from the recorded scores.
func (m *pairMemo) entry(res Result) *batchEntry {
	e := &batchEntry{res: res, scores: make([]memoScore, len(m.scores))}
	for i, ps := range m.scores {
		e.scores[i] = memoScore{PairScore: ps, result: -1}
	}
	slices.SortFunc(e.scores, func(a, b memoScore) int { return strings.Compare(a.Fingerprint, b.Fingerprint) })
	for i, r := range res.Results {
		if j, ok := e.row(r.Fingerprint); ok {
			e.scores[j].result = i
		}
	}
	return e
}

// MatchPair runs a single source-vs-target tree match through deadline,
// cache and admission, and returns it as a reply sends it: the mapping
// rendered once, inside the cached computation, as a PairMatch. That is
// all the cache keeps, about 0.04 MB per entry at pair-large's
// 289-element shape; the mapping itself would pin both schema trees
// (about 0.2 MB). The key is the pair of source keys, both content
// identities, so the entry is a content entry: no write can change it,
// and Invalidate leaves it cached. src and then dst are prepared only on
// a miss, before admission. The bool reports a cache hit or coalesced
// join. The returned PairMatch is shared when cached — immutable.
func (f *Frontend) MatchPair(ctx context.Context, src, dst Source) (*PairMatch, bool, error) {
	if f.draining.Load() {
		return nil, false, ErrDraining
	}
	ctx, cancel := WithDeadline(ctx, f.deadline)
	defer cancel()
	key := "pair|" + src.Key + "|" + dst.Key
	v, shared, err := f.cache.Do(ctx, key, true, func(ctx context.Context, _ any) (any, bool, error) {
		sp, err := src.Prepare()
		if err != nil {
			return nil, false, err
		}
		dp, err := dst.Prepare()
		if err != nil {
			return nil, false, err
		}
		release, err := f.read.Acquire(ctx)
		if err != nil {
			return nil, false, err
		}
		defer release()
		mp, err := f.reg.Matcher().MatchMapping(sp, dp)
		if err != nil {
			return nil, false, err
		}
		return PairMatchOf(mp), true, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*PairMatch), shared, nil
}

// FrontendStats snapshots the serving layer for /healthz-style reporting.
type FrontendStats struct {
	Read            PoolStats  `json:"read"`
	Write           PoolStats  `json:"write"`
	Cache           CacheStats `json:"cache"`
	DegradedMatches uint64     `json:"degradedMatches"`
	Draining        bool       `json:"draining"`
	// PairsMatched and PairsReused count the candidates computed rankings
	// tree-matched, and those whose score they took from a stale ranking
	// of the same key instead.
	PairsMatched uint64 `json:"pairsMatched"`
	PairsReused  uint64 `json:"pairsReused"`
}

// Stats snapshots the frontend's pools, cache and degradation counter.
func (f *Frontend) Stats() FrontendStats {
	return FrontendStats{
		Read:            f.read.Stats(),
		Write:           f.write.Stats(),
		Cache:           f.cache.Stats(),
		DegradedMatches: f.degraded.Load(),
		Draining:        f.draining.Load(),
		PairsMatched:    f.matched.Load(),
		PairsReused:     f.reused.Load(),
	}
}
