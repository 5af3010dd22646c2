package registry

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workloads"
)

// BenchmarkRank times one planned top-10 Match over a FamilyCorpus
// repository (seed 17) of 200 and of 2,000 schemas, cycling through 40
// probes prepared outside the timer, in the 80/20 family/rare-token mix
// of the batch benchmark workloads: probe i belongs to family i mod
// NumFamilies, and one probe in five of each family is a RareTokenProbe.
func BenchmarkRank(b *testing.B) {
	for _, size := range []struct {
		name      string
		perFamily int
	}{{"200", 20}, {"2k", 200}} {
		b.Run(size.name, func(b *testing.B) {
			r, err := New(core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: size.perFamily, Seed: 17}) {
				if _, _, err := r.Register("", s); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(17))
			fams := workloads.NumFamilies()
			probes := make([]*core.Prepared, 40)
			for i := range probes {
				var s *model.Schema
				if fam := i % fams; (i/fams+fam)%5 == 4 {
					s = workloads.RareTokenProbe(fam, rng.Int63())
				} else {
					s = workloads.FamilyProbe(fam, rng.Int63())
				}
				if probes[i], err = r.Matcher().Prepare(s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, _, err := r.Match(probes[i%len(probes)], 10, PlanOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
