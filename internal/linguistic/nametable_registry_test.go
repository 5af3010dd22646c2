package linguistic_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/linguistic"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/workloads"
)

// TestRegistryRankingUnderNameCacheResets registers one corpus into a
// registry whose matcher has the default name-table budget and into one
// whose budget holds about one schema's names, so its table resets again
// and again while the corpus registers and while probes are prepared and
// matched. Every ranking must be the same, score for score.
func TestRegistryRankingUnderNameCacheResets(t *testing.T) {
	build := func() *registry.Registry {
		r, err := registry.New(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 4, Seed: 5}) {
			if _, _, err := r.Register("", s); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	base := build()
	prev := linguistic.SetNewMatcherBudget(32 << 10)
	small := build()
	linguistic.SetNewMatcherBudget(prev)

	for f := 0; f < workloads.NumFamilies(); f++ {
		probe := workloads.FamilyProbe(f, 1234)
		if f%3 == 0 {
			probe = workloads.RareTokenProbe(f, 1234)
		}
		var got [2][]registry.Ranked
		for i, r := range []*registry.Registry{base, small} {
			p, err := r.Matcher().Prepare(probe)
			if err != nil {
				t.Fatal(err)
			}
			if got[i], _, err = r.Match(p, 10, registry.PlanOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if len(got[0]) != len(got[1]) {
			t.Fatalf("family %d: %d vs %d ranked", f, len(got[0]), len(got[1]))
		}
		for k := range got[0] {
			a, b := got[0][k], got[1][k]
			if a.Entry.Name != b.Entry.Name || a.Score != b.Score {
				t.Errorf("family %d rank %d: (%s, %v) with the default cache, (%s, %v) under resets",
					f, k, a.Entry.Name, a.Score, b.Entry.Name, b.Score)
			}
		}
	}
}

// probeMix returns n probes in the 80/20 family/rare-token mix of the
// batch benchmark workloads: probe i belongs to family i mod
// NumFamilies, and one probe in five of each family is a RareTokenProbe.
// Only the generator seeds, drawn from seed, are random.
func probeMix(n int, seed int64) []*model.Schema {
	rng := rand.New(rand.NewSource(seed))
	fams := workloads.NumFamilies()
	out := make([]*model.Schema, n)
	for i := range out {
		fam := i % fams
		if (i/fams+fam)%5 == 4 {
			out[i] = workloads.RareTokenProbe(fam, rng.Int63())
		} else {
			out[i] = workloads.FamilyProbe(fam, rng.Int63())
		}
	}
	return out
}

// TestDefaultBudgetHoldsFamilyCorpus registers a 2,000-schema
// FamilyCorpus (seed 17) and ranks 200 probes against it under the default
// budget: every entry and every probe must keep the IDs of one name table,
// so the budget never reset it.
func TestDefaultBudgetHoldsFamilyCorpus(t *testing.T) {
	r, err := registry.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 200, Seed: 17})
	var first uint64
	for i, s := range corpus {
		e, _, err := r.Register("", s)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = linguistic.NameTableOf(e.Prepared.Info())
		}
	}
	var probes []*core.Prepared
	for _, s := range probeMix(200, 17) {
		p, err := r.Matcher().Prepare(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Match(p, 10, registry.PlanOptions{}); err != nil {
			t.Fatal(err)
		}
		probes = append(probes, p)
	}
	for _, e := range r.List() {
		if linguistic.NameTableOf(e.Prepared.Info()) != first {
			t.Fatalf("entry %s holds IDs of another name table: the table was reset", e.Name)
		}
	}
	for i, p := range probes {
		if linguistic.NameTableOf(p.Info()) != first {
			t.Fatalf("probe %d holds IDs of another name table: the table was reset", i)
		}
	}
}
