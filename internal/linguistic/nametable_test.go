package linguistic

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/thesaurus"
	"repro/internal/workloads"
)

// referenceAnalyze is Analyze without the name table: every element name
// normalized on its own, and every member's category keyword set and key
// built for it and dropped when the category already exists — the
// categorization of §5.2, transcribed directly.
func referenceAnalyze(th *thesaurus.Thesaurus, s *model.Schema) *SchemaInfo {
	si := &SchemaInfo{Schema: s, Tokens: make([]TokenSet, s.Len()), memberCats: make([][]int, s.Len())}
	for _, e := range s.Elements() {
		si.Tokens[e.ID()] = Normalize(e.Name, th)
	}
	catIndex := map[string]int{}
	add := func(key, display string, keywords TokenSet, id int) {
		idx, ok := catIndex[key]
		if !ok {
			idx = len(si.Categories)
			catIndex[key] = idx
			si.Categories = append(si.Categories, Category{Name: display, Keywords: keywords})
		}
		si.Categories[idx].Members = append(si.Categories[idx].Members, id)
		si.memberCats[id] = append(si.memberCats[id], idx)
	}
	for _, e := range s.Elements() {
		if e.NotInstantiated && e.Kind != model.KindRefInt && e.Kind != model.KindView {
			continue
		}
		id := e.ID()
		for _, tok := range si.Tokens[id].ByType(TokenConcept) {
			add("concept:"+tok.Raw, "concept:"+tok.Raw,
				TokenSet{Tokens: []Token{{Raw: tok.Raw, Stem: tok.Raw, Type: TokenContent}}}, id)
		}
		if kw := e.Type.CategoryKeyword(); kw != "" {
			add("type:"+kw, "type:"+kw,
				TokenSet{Tokens: []Token{{Raw: kw, Stem: thesaurus.Stem(kw), Type: TokenContent}}}, id)
		}
		if p := e.Parent(); p != nil {
			add(fmt.Sprintf("container:%d", p.ID()), "container:"+p.Path(), si.Tokens[p.ID()], id)
		}
		if len(e.Children()) > 0 || len(e.DerivedFrom()) > 0 {
			add(fmt.Sprintf("container:%d", e.ID()), "container:"+e.Path(), si.Tokens[id], id)
		}
	}
	return si
}

// analysisDiff reports how got differs from want ("" when deep-equal):
// token sets, categories (names, keyword sets, members in order) and
// every element's category list.
func analysisDiff(got, want *SchemaInfo) string {
	switch {
	case !reflect.DeepEqual(got.Tokens, want.Tokens):
		for i := range want.Tokens {
			if !reflect.DeepEqual(got.Tokens[i], want.Tokens[i]) {
				return fmt.Sprintf("element %d tokens %q, want %q", i, got.Tokens[i], want.Tokens[i])
			}
		}
		return "token set count differs"
	case !reflect.DeepEqual(got.Categories, want.Categories):
		return fmt.Sprintf("categories %v, want %v", got.Categories, want.Categories)
	case !reflect.DeepEqual(got.memberCats, want.memberCats):
		return fmt.Sprintf("element categories %v, want %v", got.memberCats, want.memberCats)
	}
	return ""
}

// analyzeSchemas covers the paper's workloads (keys, referential
// constraints and their join views, shared types) and random schemas
// over memoNames.
func analyzeSchemas() []*model.Schema {
	var out []*model.Schema
	for _, w := range []workloads.Workload{
		workloads.Figure2(), workloads.CIDXExcel(), workloads.University(), workloads.RDBStar(), workloads.SharedTypePO(),
		workloads.Synthetic(workloads.SyntheticSpec{Tables: 6, ColsPerTable: 7, Depth: 2, Seed: 4, Rename: 0.3, Renest: 0.2, FKs: 3}),
	} {
		out = append(out, w.Source, w.Target)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		out = append(out, randomSchema(rng, fmt.Sprintf("R%d", i), ""))
	}
	// Every broad data type, under names equal to the type keywords and
	// to a concept tag: a name and a category keyword spelled alike must
	// not share a cache entry.
	kw := model.New("Keywords")
	for _, dt := range []model.DataType{model.DTInt, model.DTString, model.DTDate, model.DTBool,
		model.DTID, model.DTEnum, model.DTBinary, model.DTAny} {
		kw.AddChild(kw.Root(), dt.CategoryKeyword(), model.KindAttribute).Type = dt
	}
	kw.AddChild(kw.Root(), "money", model.KindAttribute)
	kw.AddChild(kw.Root(), "Price", model.KindAttribute)
	return append(out, kw)
}

func TestAnalyzeMatchesReference(t *testing.T) {
	for _, th := range []*thesaurus.Thesaurus{workloads.PaperThesaurus(), memoThesaurus()} {
		m := NewMatcher(th)
		for _, s := range analyzeSchemas() {
			// Twice: the second analysis is served from the name cache.
			for rep := 0; rep < 2; rep++ {
				if d := analysisDiff(m.Analyze(s), referenceAnalyze(th, s)); d != "" {
					t.Fatalf("%s (rep %d): %s", s.Name, rep, d)
				}
			}
		}
	}
}

// Two analyses of one name share one token storage: the point of the
// cache.
func TestAnalyzeSharesTokenSets(t *testing.T) {
	m := NewMatcher(memoThesaurus())
	a := m.Analyze(workloads.CIDXExcel().Source)
	b := m.Analyze(workloads.CIDXExcel().Source)
	for i := range a.Tokens {
		if len(a.Tokens[i].Tokens) > 0 && &a.Tokens[i].Tokens[0] != &b.Tokens[i].Tokens[0] {
			t.Fatalf("element %d: two analyses hold separate copies of %q", i, a.Tokens[i])
		}
	}
}

// Raw names that normalize alike (Cust expands to Customer) share one
// record: one token storage, and one ID for the name memo.
func TestAliasesShareOneRecord(t *testing.T) {
	m := NewMatcher(memoThesaurus())
	s := model.New("S")
	cust := s.AddChild(s.Root(), "Cust", model.KindAttribute)
	customer := s.AddChild(s.Root(), "Customer", model.KindAttribute)
	si := m.Analyze(s)
	a, b := si.Tokens[cust.ID()], si.Tokens[customer.ID()]
	if len(a.Tokens) == 0 || &a.Tokens[0] != &b.Tokens[0] {
		t.Fatalf("Cust (%q) and Customer (%q) hold separate token sets", a, b)
	}
	if ids := si.ids.Load(); ids.elems[cust.ID()] != ids.elems[customer.ID()] {
		t.Fatalf("Cust and Customer have IDs %d and %d", ids.elems[cust.ID()], ids.elems[customer.ID()])
	}
}

// concurrentAnalyze runs Analyze on schemas from 8 goroutines at once,
// every goroutine over all of them in its own order, and checks every
// result against the reference.
func concurrentAnalyze(t *testing.T, m *Matcher, schemas []*model.Schema, rounds int) {
	t.Helper()
	want := make([]*SchemaInfo, len(schemas))
	for i, s := range schemas {
		want[i] = referenceAnalyze(m.Th, s)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds*len(schemas); k++ {
				i := (k*(g+1) + g) % len(schemas)
				if d := analysisDiff(m.Analyze(schemas[i]), want[i]); d != "" {
					errs <- fmt.Sprintf("goroutine %d, %s: %s", g, schemas[i].Name, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// overlappingSchemas draws random schemas over memoNames; every third
// carries names of its own, so the name cache keeps missing too.
func overlappingSchemas(seed int64, n int) []*model.Schema {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*model.Schema, n)
	for i := range out {
		unique := ""
		if i%3 == 2 {
			unique = fmt.Sprintf("U%d", i)
		}
		out[i] = randomSchema(rng, fmt.Sprintf("S%d", i), unique)
	}
	return out
}

// TestAnalyzeConcurrentSharedNames: goroutines analyzing schemas over one
// vocabulary at once insert and read the same names (run with -race).
func TestAnalyzeConcurrentSharedNames(t *testing.T) {
	m := NewMatcher(memoThesaurus())
	concurrentAnalyze(t, m, append(overlappingSchemas(23, 12), analyzeSchemas()...), 3)
}

// TestAnalyzeConcurrentTableResets is the same under a name table whose
// budget holds a few schemas' names: the table fills and is replaced again
// and again while other goroutines analyze and match on it. Token sets,
// categories and LSim tables must still equal the reference.
func TestAnalyzeConcurrentTableResets(t *testing.T) {
	m := NewMatcher(memoThesaurus())
	m.budget = 24 << 10
	schemas := overlappingSchemas(29, 12)
	concurrentAnalyze(t, m, schemas, 3)

	ref := NewMatcher(memoThesaurus())
	infos := make([]*SchemaInfo, len(schemas))
	want := make([][]matrix.Matrix, len(schemas))
	for i, s := range schemas {
		infos[i] = m.Analyze(s)
		for _, o := range schemas {
			want[i] = append(want[i], referenceLSim(ref, referenceAnalyze(ref.Th, s), referenceAnalyze(ref.Th, o)))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < len(schemas)*len(schemas); k++ {
				i, j := (k+g)%len(schemas), (k/len(schemas)+g)%len(schemas)
				// A fresh analysis of i, inserting into the table (and
				// replacing it when full) while other goroutines match.
				a := m.Analyze(schemas[i])
				if !m.LSim(a, infos[j]).Equal(want[i][j]) {
					errs <- fmt.Sprintf("goroutine %d: LSim(%d,%d) differs from the reference", g, i, j)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// longName is a unique name of about 3 KB that normalizes to about 1,000
// tokens: two-letter words drawn from a small alphabet, so its tokens
// repeat across names while the name itself never does.
func longName(rng *rand.Rand, i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Name%d", i)
	for k := 0; k < 1000; k++ {
		b.WriteByte('_')
		b.WriteByte(byte('a' + rng.Intn(16)))
		b.WriteByte(byte('a' + rng.Intn(16)))
	}
	return b.String()
}

// TestNameTableBoundedUnderUniqueNames streams never-repeating ~3 KB names
// (the adversarial case: nothing is ever shared, and every name is large)
// through Analyze and LSim under a small budget: the table's byte count
// never passes the budget, the heap after GC stays flat, and every
// analysis and LSim table equals the reference.
func TestNameTableBoundedUnderUniqueNames(t *testing.T) {
	const budget, names = 512 << 10, 360
	m := NewMatcher(memoThesaurus())
	m.budget = budget
	ref := NewMatcher(memoThesaurus())
	rng := rand.New(rand.NewSource(31))
	probe := m.Analyze(randomSchema(rng, "probe", ""))
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var start uint64
	resets := 0
	for i := 0; i < names; i++ {
		if i == names/3 {
			start = heap()
		}
		s := model.New(fmt.Sprintf("S%d", i))
		s.AddChild(s.Root(), longName(rng, i), model.KindElement).Type = model.DTString
		old := m.names.Load()
		si := m.Analyze(s)
		lsim := m.LSim(probe, si)
		if tab := m.names.Load(); tab.bytes > budget {
			t.Fatalf("name %d: the name table retains %d bytes, budget %d", i, tab.bytes, budget)
		} else if tab != old {
			resets++
		}
		if i%40 == 0 {
			if d := analysisDiff(si, referenceAnalyze(m.Th, s)); d != "" {
				t.Fatalf("name %d: %s", i, d)
			}
			if want := referenceLSim(ref, probe, si); !lsim.Equal(want) {
				t.Fatalf("name %d: LSim differs from the reference", i)
			}
		}
	}
	end := heap()
	// The matcher and the probe must stay live through the measurement, or
	// their table would not be counted.
	runtime.KeepAlive(m)
	runtime.KeepAlive(probe)
	t.Logf("%d names, %d table resets, heap %.1f MB after %d names, %.1f MB after %d",
		names, resets, float64(start)/(1<<20), names/3, float64(end)/(1<<20), names)
	if resets == 0 {
		t.Fatal("the name table never reset: the test would not cover its budget")
	}
	// Two thirds of the stream, about 19 MB of records by the table's
	// estimates, may leave no more than the budget and the memos behind.
	if end > start+2*budget {
		t.Fatalf("heap grew from %d to %d bytes over %d unique names", start, end, names-names/3)
	}
}

// TestNameSimFollowsThesaurusChange: token-pair similarities belong to the
// thesaurus they were computed under, so installing another must not serve
// them (nor names normalized under the old one).
func TestNameSimFollowsThesaurusChange(t *testing.T) {
	th := thesaurus.New()
	th.AddSynonym("invoice", "bill", 1)
	th.AddAbbreviation("qty", "quantity")
	m := NewMatcher(th)
	if got := nameSim(m, "invoice", "bill"); got != 1 {
		t.Fatalf("NameSim(invoice, bill) = %v under a thesaurus with the synonym, want 1", got)
	}
	s := model.New("S")
	s.AddChild(s.Root(), "Qty", model.KindElement)
	m.Analyze(s)

	m.Th = thesaurus.New()
	fresh := NewMatcher(thesaurus.New())
	if got, want := nameSim(m, "invoice", "bill"), nameSim(fresh, "invoice", "bill"); got != want {
		t.Errorf("after a thesaurus change NameSim(invoice, bill) = %v, a fresh matcher gives %v", got, want)
	}
	if d := analysisDiff(m.Analyze(s), referenceAnalyze(m.Th, s)); d != "" {
		t.Errorf("after a thesaurus change Analyze: %s", d)
	}
}

// TestReplacedTableIsFreed keeps a schema analyzed under a name table
// while the budget replaces that table: the schema must not keep the old
// table (its maps and memos) alive, only its own records, and LSim on it
// must still equal the reference.
func TestReplacedTableIsFreed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := NewMatcher(memoThesaurus())
	m.budget = 64 << 10
	ref := NewMatcher(memoThesaurus())
	kept := m.Analyze(randomSchema(rng, "kept", ""))
	m.LSim(kept, kept)
	old := weak.Make(m.names.Load())
	for i := 0; m.names.Load() == old.Value(); i++ {
		if i == 100 {
			t.Fatal("the name table never reset: the test would not cover resets")
		}
		m.Analyze(randomSchema(rng, fmt.Sprintf("U%d", i), fmt.Sprintf("Unique%d", i)))
	}
	runtime.GC()
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("a schema analyzed under a replaced name table keeps that table alive")
	}
	if got, want := m.LSim(kept, kept), referenceLSim(ref, kept, kept); !got.Equal(want) {
		t.Fatalf("LSim after the reset differs from the reference (max diff %g)", got.MaxAbsDiff(want))
	}
}
