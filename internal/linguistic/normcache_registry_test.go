package linguistic_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/linguistic"
	"repro/internal/registry"
	"repro/internal/workloads"
)

// TestRegistryRankingUnderNameCacheResets registers one corpus into a
// registry whose matcher has the default name cache and into one whose
// cache holds one name a stripe, so it resets on almost every miss while
// the corpus registers and while probes are prepared and matched. Every
// ranking must be the same, score for score.
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
	prev := linguistic.SetNewMatcherNormCap(64)
	small := build()
	linguistic.SetNewMatcherNormCap(prev)

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
