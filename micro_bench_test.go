// Micro-benchmarks for the individual subsystems, complementing the
// per-experiment benchmarks in bench_test.go: they localize where matching
// time goes (tokenization, name similarity, tree expansion, TreeMatch).
package cupid_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/linguistic"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/schematree"
	"repro/internal/structural"
	"repro/internal/thesaurus"
	"repro/internal/workloads"
)

func BenchmarkStemmer(b *testing.B) {
	words := []string{
		"shipping", "addresses", "territories", "relational", "quantities",
		"organizations", "descriptions", "probabilistic", "customers",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		thesaurus.Stem(words[i%len(words)])
	}
}

func BenchmarkTokenize(b *testing.B) {
	names := []string{
		"POLines", "ContactFunctionCode", "yourAccountCode", "Street1",
		"Order-Customer-fk", "UnitOfMeasure", "CIDXPurchaseOrder",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		linguistic.Tokenize(names[i%len(names)])
	}
}

func BenchmarkNormalize(b *testing.B) {
	th := thesaurus.Base()
	names := []string{"POLines", "UnitPrice", "ContactPhone", "StateOrProvince"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		linguistic.Normalize(names[i%len(names)], th)
	}
}

func BenchmarkNameSim(b *testing.B) {
	m := linguistic.NewMatcher(thesaurus.Base())
	pairs := [][2]string{
		{"POBillTo", "InvoiceTo"},
		{"Qty", "Quantity"},
		{"CustomerNumber", "ClientNo"},
		{"UnitOfMeasure", "UOM"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		m.NameSim(p[0], p[1])
	}
}

func BenchmarkSchemaTreeBuild(b *testing.B) {
	s := workloads.Excel() // shared types: real expansion work
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := schematree.Build(s, schematree.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeMatchOnly(b *testing.B) {
	w := workloads.CIDXExcel()
	ts, err := schematree.Build(w.Source, schematree.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	tt, err := schematree.Build(w.Target, schematree.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	lm := linguistic.NewMatcher(workloads.PaperThesaurus())
	a := lm.Analyze(w.Source)
	c := lm.Analyze(w.Target)
	elem := lm.LSim(a, c)
	lsim := matrix.New(ts.Len(), tt.Len())
	for i, sn := range ts.Nodes {
		for j, tn := range tt.Nodes {
			lsim.Set(i, j, elem.At(sn.Elem.ID(), tn.Elem.ID()))
		}
	}
	p := structural.DefaultParams()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		structural.TreeMatch(ts, tt, lsim, p)
	}
}

func BenchmarkLinguisticPhaseOnly(b *testing.B) {
	w := workloads.CIDXExcel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lm := linguistic.NewMatcher(workloads.PaperThesaurus())
		a := lm.Analyze(w.Source)
		c := lm.Analyze(w.Target)
		lm.LSim(a, c)
	}
}

func BenchmarkNameSimTS(b *testing.B) {
	lm := linguistic.NewMatcher(workloads.PaperThesaurus())
	ts1 := linguistic.Normalize("PurchaseOrderLines", lm.Th)
	ts2 := linguistic.Normalize("OrderItems", lm.Th)
	lm.NameSimTS(ts1, ts2) // warm the token-sim cache
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lm.NameSimTS(ts1, ts2)
	}
}

func BenchmarkLSimWarm(b *testing.B) {
	w := workloads.CIDXExcel()
	lm := linguistic.NewMatcher(workloads.PaperThesaurus())
	a := lm.Analyze(w.Source)
	c := lm.Analyze(w.Target)
	lm.LSim(a, c) // warm the token-sim cache
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lm.LSim(a, c)
	}
}

// allocWorkload is the mid-size synthetic pair of the allocation pins.
func allocWorkload() workloads.Workload {
	return workloads.Synthetic(workloads.SyntheticSpec{
		Tables: 4, ColsPerTable: 8, Depth: 2, Seed: 2, Rename: 0.3, Renest: 0.2,
	})
}

// allocFixture builds the mid-size synthetic schema pair used by the
// allocation-regression assertions (41 elements per side with the default
// spec: big enough that a per-row or per-call allocation regression is
// amplified well past the bounds, small enough to run in milliseconds).
func allocFixture(tb testing.TB) (lm *linguistic.Matcher, a, c *linguistic.SchemaInfo,
	ts, tt *schematree.Tree, lsim matrix.Matrix) {
	tb.Helper()
	w := allocWorkload()
	lm = linguistic.NewMatcher(workloads.PaperThesaurus())
	a = lm.Analyze(w.Source)
	c = lm.Analyze(w.Target)
	var err error
	if ts, err = schematree.Build(w.Source, schematree.DefaultOptions()); err != nil {
		tb.Fatal(err)
	}
	if tt, err = schematree.Build(w.Target, schematree.DefaultOptions()); err != nil {
		tb.Fatal(err)
	}
	elem := lm.LSim(a, c)
	lsim = matrix.New(ts.Len(), tt.Len())
	for i, sn := range ts.Nodes {
		for j, tn := range tt.Nodes {
			lsim.Set(i, j, elem.At(sn.Elem.ID(), tn.Elem.ID()))
		}
	}
	return lm, a, c, ts, tt, lsim
}

// TestAllocRegressions pins the allocation behaviour of the hot paths on a
// mid-size synthetic schema. Bounds carry ~2x headroom over the measured
// values (0, 3, 10 and 5 at the time of writing), so incidental churn
// passes but reintroducing a per-call or per-row allocation (e.g. ByType
// re-filtering, [][]float64 row allocation, an allocating name-memo
// lookup, a per-leaf basis slice, kernel working memory outside the pooled
// scratch) fails loudly. Runs with one worker so the goroutine machinery
// of the parallel path is not counted.
func TestAllocRegressions(t *testing.T) {
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	lm, a, c, ts, tt, lsim := allocFixture(t)

	ts1 := linguistic.Normalize("PurchaseOrderLines", lm.Th)
	ts2 := linguistic.Normalize("OrderItems", lm.Th)
	lm.NameSimTS(ts1, ts2) // warm the cache: steady-state is what we pin
	if got := testing.AllocsPerRun(200, func() { lm.NameSimTS(ts1, ts2) }); got > 0 {
		t.Errorf("NameSimTS allocates %.1f objects/op on warm cache, want 0", got)
	}

	// A warm name-memo lookup allocates nothing: on a warm memo LSim
	// allocates the same handful of per-call objects (the table, the row
	// closure) whether the pair needs few name lookups or many.
	lm.LSim(a, a) // memoize the self-pair; the fixture already ran (a, c)
	few := testing.AllocsPerRun(10, func() { lm.LSim(a, c) })
	many := testing.AllocsPerRun(10, func() { lm.LSim(a, a) })
	if few != many || few > 6 {
		t.Errorf("warm LSim allocates %.1f and %.1f objects/op for different lookup counts, want the same <= 6", few, many)
	}

	p := structural.DefaultParams()
	if got := testing.AllocsPerRun(10, func() { structural.TreeMatch(ts, tt, lsim, p) }); got > 20 {
		t.Errorf("TreeMatch allocates %.1f objects/op, want <= 20", got)
	}

	// A warm MatchScore draws every table and all TreeMatch working
	// memory from the pooled kernel scratch: the same few objects per
	// candidate on a small pair as on the mid-size one.
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	score := func(w workloads.Workload) float64 {
		src, err := m.Prepare(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := m.Prepare(w.Target)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := m.MatchScore(src, dst); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the name memo and the pool
		return testing.AllocsPerRun(100, run)
	}
	small, mid := score(workloads.Figure2()), score(allocWorkload())
	if small != mid || small > 8 {
		t.Errorf("warm MatchScore allocates %.1f (small pair) and %.1f (mid-size pair) objects/op, want the same <= 8", small, mid)
	}
}
