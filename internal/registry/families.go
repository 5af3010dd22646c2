package registry

// Corpus-scale schema families: the registry-side state of the
// internal/corpus clustering. ClusterFamilies computes the clustering
// over the live entry set using the inverted index for candidate
// generation; SetFamilies installs a (validated) result, and the family
// retrieval strategy (StrategyFamily, planner.go) consults the installed
// view — probing the family medoids first, full-matching only inside the
// winning family.
//
// Freshness is judged against the registry's mutation counter: an
// installed clustering records the counter at install time, and once the
// corpus has mutated past a tolerance proportional to the clustered
// corpus size the view stops being usable — the planner plans without it
// until a re-clustering is installed. The raw canonical
// bytes are kept alongside the decoded result so the persistence layer
// journals (and the server serves) exactly the bytes the clustering
// produced, byte-identical across restarts and replicas.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/model"
)

// familyView is one installed clustering: the decoded result, the
// canonical bytes it was installed from, the medoid probe list, the
// member→family lookup, and the staleness bookkeeping.
type familyView struct {
	res *corpus.Result
	raw []byte
	// medoids in family order (sorted by medoid name, same as res.Families).
	medoids []string
	// family maps every member name to its index in res.Families.
	family map[string]int
	// installedMut is the registry mutation counter at install time;
	// staleAfter is how many further mutations the view tolerates.
	installedMut uint64
	staleAfter   uint64
}

// familyStaleFloor and familyStaleFraction size the staleness tolerance:
// an installed clustering survives max(16, corpus/8) mutations before the
// planner stops trusting it.
const (
	familyStaleFloor    = 16
	familyStaleFraction = 8
)

// familyAutoMinCorpus is the corpus size below which the planner never
// auto-selects the family route: probing every medoid only pays off once
// the per-family member sets dwarf the medoid list.
const familyAutoMinCorpus = 512

// ClusterFamilies computes the corpus clustering over the current entry
// set: candidate pairs from the inverted index (O(n·k) probes, never the
// O(n²) cross product), deterministic greedy-medoid components
// (corpus.Cluster). It only computes — install the result with
// SetFamilies (or persist it with Persistent.StoreFamilies).
func (r *Registry) ClusterFamilies(opt corpus.Options) (*corpus.Result, error) {
	entries := r.List()
	items := make([]corpus.Item, len(entries))
	for i, e := range entries {
		items[i] = corpus.Item{Key: e.Name, Sig: e.Prepared.Signature()}
	}
	res := corpus.Cluster(items, func(sig model.Signature, k int) []corpus.Neighbor {
		cands, _ := r.idx.TopK(sig, k)
		out := make([]corpus.Neighbor, len(cands))
		for i, c := range cands {
			out[i] = corpus.Neighbor{Key: c.Key, Affinity: c.Affinity}
		}
		return out
	}, opt)
	return res, nil
}

// SetFamilies validates and installs a clustering result, resetting the
// staleness clock. A nil result clears the installed state.
func (r *Registry) SetFamilies(res *corpus.Result) error {
	if res == nil {
		r.ClearFamilies()
		return nil
	}
	raw, err := res.Encode()
	if err != nil {
		return err
	}
	return r.SetFamiliesJSON(raw)
}

// SetFamiliesJSON installs a clustering from its canonical bytes — the
// form the persistence and replication layers carry — keeping exactly
// those bytes as the served representation (FamiliesJSON), so a restarted
// or replicated node is byte-identical to the node that clustered.
func (r *Registry) SetFamiliesJSON(raw []byte) error {
	res, err := corpus.Decode(raw)
	if err != nil {
		return fmt.Errorf("registry: installing families: %w", err)
	}
	fv := &familyView{
		res:        res,
		raw:        append([]byte(nil), raw...),
		medoids:    make([]string, len(res.Families)),
		family:     make(map[string]int, res.Members()),
		staleAfter: familyStaleFloor,
	}
	for i, f := range res.Families {
		fv.medoids[i] = f.Medoid
		for _, m := range f.Members {
			fv.family[m] = i
		}
	}
	if frac := uint64(res.Corpus / familyStaleFraction); frac > fv.staleAfter {
		fv.staleAfter = frac
	}
	fv.installedMut = r.mutations.Load()
	r.families.Store(fv)
	return nil
}

// ClearFamilies removes the installed clustering; the planner plans
// without the family route.
func (r *Registry) ClearFamilies() {
	r.families.Store(nil)
}

// Families returns the installed clustering result, or nil when none is
// installed. The result is shared — callers must not mutate it.
func (r *Registry) Families() *corpus.Result {
	fv := r.families.Load()
	if fv == nil {
		return nil
	}
	return fv.res
}

// FamiliesJSON returns the canonical bytes of the installed clustering
// (exactly what SetFamiliesJSON installed, what the WAL journals, and
// what GET /corpus/families serves), or nil when none is installed.
func (r *Registry) FamiliesJSON() []byte {
	fv := r.families.Load()
	if fv == nil {
		return nil
	}
	return fv.raw
}

// FamilyOf returns the medoid of the installed family containing name.
func (r *Registry) FamilyOf(name string) (medoid string, ok bool) {
	fv := r.families.Load()
	if fv == nil {
		return "", false
	}
	i, ok := fv.family[name]
	if !ok {
		return "", false
	}
	return fv.medoids[i], true
}

// FamiliesFresh reports whether a clustering is installed and still
// within its staleness tolerance — the condition under which the planner
// will route through it.
func (r *Registry) FamiliesFresh() bool {
	return r.usableFamilies() != nil
}

// usableFamilies returns the installed view when it is routable: at least
// two families (with one family the probe list is the corpus — routing
// buys nothing) and fewer corpus mutations since install than the
// tolerance. Allocation-free: one atomic load and two counter reads, so
// Plan stays allocation-free with families installed.
func (r *Registry) usableFamilies() *familyView {
	fv := r.families.Load()
	if fv == nil || len(fv.medoids) < 2 {
		return nil
	}
	if r.mutations.Load()-fv.installedMut > fv.staleAfter {
		return nil
	}
	return fv
}

// executeFamily runs the family route of one plan: score the family
// medoids (real scores — every medoid score is reusable, the medoid being
// a member of its own family), pick the best-scoring medoid's family,
// score every member of that family, and merge them with the medoid
// scores under the single-node ranking order; only the merged top K get
// full results. The winning
// family is matched whole, never affinity-pruned: within a family the
// signatures are near-uniform by construction (that is what made it a
// family), so an affinity cut there is close to a random sample and
// destroys recall — the clustering already did the corpus-level
// narrowing, and the route's speed comes from one family plus the
// medoid probes being far smaller than the flat indexed candidate
// budget. When the installed clustering is unusable — none installed,
// gone stale since planning, or its medoids no longer resolve — a planned
// call runs the plan the planner makes with the clustering left out, a
// forced one the forced indexed path; either way the stats report the
// strategy that ran, flagged FamilyFallback.
func (r *Registry) executeFamily(ctx context.Context, src *core.Prepared, topK int, plan Plan) ([]Ranked, RetrievalStats, error) {
	fv := r.usableFamilies()
	var medoids []*Entry
	if fv != nil {
		medoids = make([]*Entry, 0, len(fv.medoids))
		for _, name := range fv.medoids {
			// A medoid removed since clustering simply stops being probed;
			// its family members are unreachable by this route until a
			// re-clustering, which the staleness clock forces soon anyway.
			if e, ok := r.Get(name); ok {
				medoids = append(medoids, e)
			}
		}
	}
	if fv == nil || len(medoids) < 2 {
		fallback := Plan{Strategy: StrategyIndexed, Degraded: plan.Degraded}
		if plan.Planned {
			fallback = r.plan(src, topK, plan.Degraded, nil)
		}
		ranked, st, err := r.execute(ctx, src, topK, fallback)
		st.FamilyFallback = true
		return ranked, st, err
	}
	st := plan.stats()
	st.Families = len(medoids)

	medRanked, err := r.score(ctx, medoids, src, topK <= 0)
	if err != nil {
		return nil, st, err
	}
	win := medRanked[0]
	for _, rk := range medRanked[1:] {
		if rankedBefore(rk, win) {
			win = rk
		}
	}
	winner := win.Entry
	st.Family = winner.Name
	members := fv.res.Families[fv.family[winner.Name]].Members
	entries := make([]*Entry, 0, len(members))
	for _, name := range members {
		if name == winner.Name {
			continue // already matched as a medoid
		}
		if e, ok := r.Get(name); ok {
			entries = append(entries, e)
		}
	}
	st.CandidateBudget = len(medoids) + len(members)
	st.CandidatesScored = len(medoids) + len(entries)
	ranked, err := r.score(ctx, entries, src, topK <= 0 || topK >= len(medoids)+len(entries))
	if err != nil {
		return nil, st, err
	}
	st.CandidatesMatched = len(medoids) + len(entries)
	merged, err := r.top(ctx, src, append(ranked, medRanked...), topK)
	if err != nil {
		return nil, st, err
	}
	return merged, st, nil
}
