// Micro-benchmarks for the individual subsystems, complementing the
// per-experiment benchmarks in bench_test.go: they localize where matching
// time goes (tokenization, name similarity, tree expansion, TreeMatch).
package cupid_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/linguistic"
	"repro/internal/mapping"
	"repro/internal/matrix"
	"repro/internal/model"
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
		m.NameSimTS(linguistic.Normalize(p[0], m.Th), linguistic.Normalize(p[1], m.Th))
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

// BenchmarkNameSimMiss is NameSimTS over the element names of the
// mid-size synthetic pair (allocWorkload), a different name pair on every
// op, with every name and token pair seen once before: the cost of a
// name-memo miss in LSim, plus NameSimTS's two lookups of the names.
func BenchmarkNameSimMiss(b *testing.B) {
	lm := linguistic.NewMatcher(workloads.PaperThesaurus())
	src, dst := warmNamePairs(lm)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lm.NameSimTS(src[i%len(src)], dst[(i/len(src))%len(dst)])
	}
}

// warmNamePairs normalizes the element names of allocWorkload's two
// schemas and runs NameSimTS once over every pair of them, so every name
// and every token pair is known to lm.
func warmNamePairs(lm *linguistic.Matcher) (src, dst []linguistic.TokenSet) {
	w := allocWorkload()
	for _, e := range w.Source.Elements() {
		src = append(src, linguistic.Normalize(e.Name, lm.Th))
	}
	for _, e := range w.Target.Elements() {
		dst = append(dst, linguistic.Normalize(e.Name, lm.Th))
	}
	for _, a := range src {
		for _, c := range dst {
			lm.NameSimTS(a, c)
		}
	}
	return src, dst
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
// values (0, 3, 938, 10 and 5 at the time of writing), so incidental churn
// passes but reintroducing a per-call or per-row allocation (e.g. ByType
// re-filtering, re-normalizing names already seen, [][]float64 row
// allocation, an allocating name-memo lookup, a per-leaf basis slice,
// kernel working memory outside the pooled scratch) fails loudly. Runs with one worker so the goroutine machinery
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

	// A name-memo miss over warm tokens allocates nothing: NameSimTS
	// computes ns from the names' interned records, as a miss in LSim
	// does, here for a different name pair on every call.
	names, others := warmNamePairs(lm)
	k := 0
	if got := testing.AllocsPerRun(500, func() {
		lm.NameSimTS(names[k%len(names)], others[(k/len(names))%len(others)])
		k++
	}); got > 0 {
		t.Errorf("a name similarity over warm tokens allocates %.1f objects/op, want 0", got)
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

	// A warm Analyze finds every name in the matcher's name table: on the
	// pair-large shape (289 elements) it allocates only its SchemaInfo,
	// its categories and their membership lists (938 measured), where
	// normalizing every name again and building a keyword set per
	// category member cost 8.8k.
	large := pairLargeWorkload().Source
	lm.Analyze(large)
	if got := testing.AllocsPerRun(10, func() { lm.Analyze(large) }); got > 1900 {
		t.Errorf("warm Analyze allocates %.1f objects/op on a pair-large-shaped schema, want <= 1900", got)
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
	// Both pool-dependent checks are skipped under -race, where sync.Pool
	// drops pooled scratch at random (raceEnabled).
	small, mid := score(workloads.Figure2()), score(allocWorkload())
	if !raceEnabled && (small != mid || small > 8) {
		t.Errorf("warm MatchScore allocates %.1f (small pair) and %.1f (mid-size pair) objects/op, want the same <= 8", small, mid)
	}

	// A warm pooled pair (MatchMapping, what /match runs) builds its lsim,
	// ssim and wsim in the pooled scratch, so on a pair-large-shaped pair
	// it allocates under a tenth of MatchPrepared's bytes, which are
	// mostly those three fresh tables.
	src, dst := pairLarge(t, m)
	pooled := bytesPerRun(5, func() {
		if _, err := m.MatchMapping(src, dst); err != nil {
			t.Fatal(err)
		}
	})
	fresh := bytesPerRun(5, func() {
		if _, err := m.MatchPrepared(src, dst); err != nil {
			t.Fatal(err)
		}
	})
	if !raceEnabled && pooled*10 >= fresh {
		t.Errorf("warm pooled pair allocates %d bytes/op, MatchPrepared %d: want under a tenth", pooled, fresh)
	}
}

// pairLarge prepares the pair-large shape: two 289-element Synthetic
// schemas of 256 leaves each (16 tables of 16 columns, two deep, 30% of
// the target's names perturbed, 20% of its leaves moved up a level).
func pairLarge(tb testing.TB, m *core.Matcher) (src, dst *core.Prepared) {
	tb.Helper()
	w := pairLargeWorkload()
	src, err := m.Prepare(w.Source)
	if err != nil {
		tb.Fatal(err)
	}
	if dst, err = m.Prepare(w.Target); err != nil {
		tb.Fatal(err)
	}
	return src, dst
}

// pairLargeWorkload is the pair-large schema pair (see pairLarge).
func pairLargeWorkload() workloads.Workload {
	return workloads.Synthetic(workloads.SyntheticSpec{Tables: 16, ColsPerTable: 16, Depth: 2, Rename: 0.3, Renest: 0.2, Seed: 1})
}

// bytesPerRun is the heap bytes one call of f allocates, averaged over
// runs warm calls (one unmeasured call first). It measures on one P with
// the collector off, so every call finds the scratch the previous one
// pooled: a collection empties sync.Pool, and a goroutine that moves to
// another P cannot take what it put in the first P's private slot. Either
// would make a call allocate a fresh scratch, a warm-up cost rather than
// a per-call one.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkPairLarge is one warm pair-large-shaped match (pairLarge),
// through MatchPrepared, which allocates the result's matrices, and
// through MatchMapping, the pooled path /match runs. It reproduces the
// per-pair kernel cost of the end-to-end /match workload without the HTTP
// harness; run with -benchmem.
func BenchmarkPairLarge(b *testing.B) {
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	src, dst := pairLarge(b, m)
	if _, err := m.MatchPrepared(src, dst); err != nil { // warm the name memo and the pool
		b.Fatal(err)
	}
	b.Run("MatchPrepared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.MatchPrepared(src, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.MatchMapping(src, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMappingGenerate is mapping generation alone on the pair-large
// shape (pairLarge): leaf and non-leaf 1:n mappings over the wsim of one
// finished MatchPrepared, with the core facade's default options.
func BenchmarkMappingGenerate(b *testing.B) {
	cfg := core.DefaultConfig()
	m, err := core.NewMatcher(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src, dst := pairLarge(b, m)
	res, err := m.MatchPrepared(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mapping.Generate(res.SourceTree, res.TargetTree, res.Struct, res.LSim, cfg.Mapping)
	}
}

// BenchmarkFingerprint is the content hash of one pair-large-shaped
// schema (289 elements), which keys every registry entry.
func BenchmarkFingerprint(b *testing.B) {
	s := pairLargeWorkload().Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model.Fingerprint(s)
	}
}
