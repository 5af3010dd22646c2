package registry

// Corpus-scale schema families: the registry-side state of the
// internal/corpus clustering. ClusterFamilies computes the clustering
// over the live entry set using the inverted index for candidate
// generation; SetFamilies installs a (validated) result. The installed
// clustering is a view of the corpus, not a retrieval path: FamilyOf
// answers which family a schema belongs to (the mapping composition
// behind cupidd's /mappings?via=family), and no ranking ever reads it.
// The raw canonical bytes are kept alongside the decoded result so the
// persistence layer journals (and the server serves) exactly the bytes
// the clustering produced, byte-identical across restarts and replicas.

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/model"
)

// familyView is one installed clustering: the decoded result, the
// canonical bytes it was installed from, and the member→medoid lookup.
type familyView struct {
	res *corpus.Result
	raw []byte
	// medoid maps every member name to its family's medoid.
	medoid map[string]string
}

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

// SetFamilies validates and installs a clustering result. A nil result
// clears the installed state.
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
		res:    res,
		raw:    append([]byte(nil), raw...),
		medoid: make(map[string]string, res.Members()),
	}
	for _, f := range res.Families {
		for _, m := range f.Members {
			fv.medoid[m] = f.Medoid
		}
	}
	r.families.Store(fv)
	return nil
}

// ClearFamilies removes the installed clustering.
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
	medoid, ok = fv.medoid[name]
	return medoid, ok
}
