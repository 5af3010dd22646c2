package linguistic

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/thesaurus"
)

// referenceNameSim is ns(m1,m2) of §5.2–5.3 over two token sets, with no
// interning and no cache: the per-type weighted mean of best-counterpart
// token averages, every content token pair scored by the thesaurus
// directly, and the acronym floor read from the token lists.
func referenceNameSim(p Params, th *thesaurus.Thesaurus, ts1, ts2 TokenSet) float64 {
	tokenSim := func(a, b Token) float64 {
		if a.Type != b.Type {
			return 0
		}
		if a.Type != TokenContent {
			if a.Raw == b.Raw {
				return 1
			}
			return 0
		}
		if a.Stem == b.Stem {
			return 1
		}
		return th.Sim(a.Raw, b.Raw)
	}
	setSim := func(t1, t2 []Token) float64 {
		sum := 0.0
		for _, a := range t1 {
			best := 0.0
			for _, b := range t2 {
				if s := tokenSim(a, b); s > best {
					best = s
				}
			}
			sum += best
		}
		for _, b := range t2 {
			best := 0.0
			for _, a := range t1 {
				if s := tokenSim(a, b); s > best {
					best = s
				}
			}
			sum += best
		}
		return sum / float64(len(t1)+len(t2))
	}
	var num, den float64
	for tt := TokenType(0); tt < NumTokenTypes; tt++ {
		t1, t2 := ts1.ByType(tt), ts2.ByType(tt)
		size := float64(len(t1) + len(t2))
		if size == 0 {
			continue
		}
		w := p.Weights[tt]
		num += w * setSim(t1, t2) * size
		den += w * size
	}
	if den == 0 {
		return 0
	}
	ns := num / den
	if p.DisableAcronymDetection {
		return ns
	}
	words := func(ts TokenSet) []string {
		var out []string
		for _, t := range ts.Tokens {
			if t.Type == TokenContent || t.Type == TokenCommon {
				out = append(out, t.Raw)
			}
		}
		return out
	}
	initialism := func(single string, words []string) bool {
		n := len(single)
		if n < acronymMinLen || n > acronymMaxLen || len(words) != n {
			return false
		}
		for i, w := range words {
			if len(w) == 0 || w[0] != single[i] {
				return false
			}
		}
		return true
	}
	wa, wb := words(ts1), words(ts2)
	if (len(wa) == 1 && initialism(wa[0], wb)) || (len(wb) == 1 && initialism(wb[0], wa)) {
		if acronymStrength > ns {
			ns = acronymStrength
		}
	}
	return ns
}

// referenceLSim is LSim without the memo: the category scale reduced into a
// map from per-pair referenceNameSim calls, then one referenceNameSim per
// scaled element pair — the definition of §5.3, transcribed directly.
func referenceLSim(m *Matcher, a, b *SchemaInfo) matrix.Matrix {
	ns := func(ts1, ts2 TokenSet) float64 { return referenceNameSim(m.P, m.Th, ts1, ts2) }
	scale := map[[2]int]float64{}
	for _, ca := range a.Categories {
		for _, cb := range b.Categories {
			ns := ns(ca.Keywords, cb.Keywords)
			if ns < m.P.Thns {
				continue
			}
			for _, ma := range ca.Members {
				for _, mb := range cb.Members {
					if p := [2]int{ma, mb}; ns > scale[p] {
						scale[p] = ns
					}
				}
			}
		}
	}
	out := matrix.New(a.Schema.Len(), b.Schema.Len())
	for p, s := range scale {
		out.Set(p[0], p[1], ns(a.Tokens[p[0]], b.Tokens[p[1]])*s)
	}
	return out
}

// memoThesaurus extends the base thesaurus with synonyms, abbreviations and
// concepts the random names below hit.
func memoThesaurus() *thesaurus.Thesaurus {
	th := thesaurus.Base()
	th.AddSynonym("client", "customer", 1)
	th.AddSynonym("vendor", "supplier", 0.9)
	th.AddHypernym("phone", "contact", 0.8)
	th.AddAbbreviation("cust", "customer")
	th.AddAbbreviation("addr", "address")
	th.AddConcept("price", "money")
	th.AddConcept("cost", "money")
	th.AddConcept("amount", "money")
	return th
}

// memoNames mixes thesaurus hits (synonyms, abbreviations, concepts),
// initialisms the acronym heuristic catches (UOM, PO, SKU), numbers,
// symbols and stop words.
var memoNames = []string{
	"Qty", "Quantity", "UOM", "UnitOfMeasure", "PO", "PurchaseOrder",
	"Bill", "Invoice", "POBillTo", "InvoiceTo", "DeliverTo", "Street1",
	"Street2", "City", "CityName", "Client", "Customer", "CustAddr",
	"CustomerAddress", "Vendor", "Supplier", "Phone", "ContactPhone",
	"Price", "UnitPrice", "Cost", "Amount", "TotalAmount", "SKU",
	"StockKeepingUnit", "Item#", "OrderOfTheDay", "Line", "Lines", "Items",
}

var memoTypes = []model.DataType{model.DTString, model.DTInt, model.DTDecimal, model.DTDate, model.DTBool}

// randomSchema builds a two-level schema from memoNames (suffixed with
// unique when set, so every name is new).
func randomSchema(rng *rand.Rand, name, unique string) *model.Schema {
	s := model.New(name)
	for c := 0; c < 2+rng.Intn(3); c++ {
		parent := s.AddChild(s.Root(), memoNames[rng.Intn(len(memoNames))]+unique, model.KindElement)
		for l := 0; l < 2+rng.Intn(5); l++ {
			e := s.AddChild(parent, memoNames[rng.Intn(len(memoNames))]+unique, model.KindAttribute)
			e.Type = memoTypes[rng.Intn(len(memoTypes))]
		}
	}
	return s
}

func TestLSimMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMatcher(memoThesaurus())
	ref := NewMatcher(memoThesaurus())
	infos := make([]*SchemaInfo, 12)
	for i := range infos {
		infos[i] = m.Analyze(randomSchema(rng, fmt.Sprintf("S%d", i), ""))
	}
	// Every ordered pair twice: the second sweep runs on a warm memo.
	for rep := 0; rep < 2; rep++ {
		for _, a := range infos {
			for _, b := range infos {
				if got, want := m.LSim(a, b), referenceLSim(ref, a, b); !got.Equal(want) {
					t.Fatalf("rep %d %s×%s: memoized LSim differs from the reference (max diff %g)",
						rep, a.Schema.Name, b.Schema.Name, got.MaxAbsDiff(want))
				}
			}
		}
	}
	// Changing the parameters between calls must not serve stale values.
	m.P.DisableAcronymDetection = true
	ref.P.DisableAcronymDetection = true
	for _, b := range infos {
		if got, want := m.LSim(infos[0], b), referenceLSim(ref, infos[0], b); !got.Equal(want) {
			t.Fatalf("after a parameter change: LSim differs from the reference")
		}
	}
}

// TestLSimConcurrentCallers shares one matcher among goroutines that
// intern and memoize the same names at once (run with -race). Half the
// schemas carry names of their own, so the memo also grows (copying its
// entries) and resets at its cap while callers read it.
func TestLSimConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMatcher(memoThesaurus())
	m.memoCap = 1 << 13
	ref := NewMatcher(memoThesaurus())
	infos := make([]*SchemaInfo, 12)
	want := make([][]matrix.Matrix, len(infos))
	for i := range infos {
		unique := ""
		if i%2 == 1 {
			unique = fmt.Sprintf("U%d", i)
		}
		infos[i] = m.Analyze(randomSchema(rng, fmt.Sprintf("S%d", i), unique))
	}
	for i, a := range infos {
		for _, b := range infos {
			want[i] = append(want[i], referenceLSim(ref, a, b))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < len(infos)*len(infos); k++ {
				i, j := (k+g)%len(infos), (k/len(infos)+g)%len(infos)
				if !m.LSim(infos[i], infos[j]).Equal(want[i][j]) {
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

// TestLinguisticCachesBounded streams schemas of never-seen names through
// a matcher with tiny caps: the name table must stay within its byte
// budget, and the name memo and the token-pair memo within their pair
// caps, while every result still equals a fresh matcher's.
func TestLinguisticCachesBounded(t *testing.T) {
	const budget, memoCap, tokenCap = 48 << 10, 128, 128
	m := NewMatcher(memoThesaurus())
	m.budget, m.memoCap, m.tokenCap = budget, memoCap, tokenCap
	rng := rand.New(rand.NewSource(13))
	probe := m.Analyze(randomSchema(rng, "probe", ""))
	resets := 0
	for i := 0; i < 60; i++ {
		old := m.names.Load()
		s := m.Analyze(randomSchema(rng, fmt.Sprintf("S%d", i), fmt.Sprintf("X%d", i)))
		for _, pair := range [][2]*SchemaInfo{{probe, s}, {s, probe}, {s, s}} {
			fresh := NewMatcher(memoThesaurus())
			want := fresh.LSim(fresh.Analyze(pair[0].Schema), fresh.Analyze(pair[1].Schema))
			if got := m.LSim(pair[0], pair[1]); !got.Equal(want) {
				t.Fatalf("schema %d: LSim differs from a fresh matcher's", i)
			}
		}
		tab := m.names.Load()
		if tab != old {
			resets++
		}
		if tab.bytes > budget {
			t.Fatalf("schema %d: the name table retains %d bytes, budget %d", i, tab.bytes, budget)
		}
		if n := tab.memo.gen.Load().used.Load(); n > memoCap {
			t.Fatalf("schema %d: %d memoized name pairs, cap %d", i, n, memoCap)
		}
		if n := tab.pairs.gen.Load().used.Load(); n > tokenCap {
			t.Fatalf("schema %d: %d memoized token pairs, cap %d", i, n, tokenCap)
		}
		// A row directory holds one slot per ID looked up, so it stays
		// within twice the table's records or token strings.
		for name, dir := range map[string][2]int{
			"name":  {len(tab.memo.gen.Load().dir.Load().rows), len(tab.sets)},
			"token": {len(tab.pairs.gen.Load().dir.Load().rows), len(tab.strs)},
		} {
			if dir[0] > 2*dir[1] {
				t.Fatalf("schema %d: %s memo directory has %d rows for %d IDs", i, name, dir[0], dir[1])
			}
		}
	}
	if resets == 0 {
		t.Fatal("the name table never reset: the test would not cover its budget")
	}
}

// A pair whose names alone pass the budget is matched on a table of its
// own and still computes the reference values.
func TestLSimPairBeyondBudget(t *testing.T) {
	m := NewMatcher(memoThesaurus())
	m.budget = 2 << 10
	rng := rand.New(rand.NewSource(21))
	a := m.Analyze(randomSchema(rng, "A", ""))
	b := m.Analyze(randomSchema(rng, "B", ""))
	if got, want := m.LSim(a, b), referenceLSim(NewMatcher(memoThesaurus()), a, b); !got.Equal(want) {
		t.Fatal("LSim beyond the budget differs from the reference")
	}
	if d := analysisDiff(a, referenceAnalyze(m.Th, a.Schema)); d != "" {
		t.Fatalf("Analyze beyond the budget: %s", d)
	}
}

// TestMemoLookupAllocFree pins a warm memo lookup at zero allocations.
func TestMemoLookupAllocFree(t *testing.T) {
	m := NewMatcher(memoThesaurus())
	rng := rand.New(rand.NewSource(3))
	a := m.Analyze(randomSchema(rng, "A", ""))
	b := m.Analyze(randomSchema(rng, "B", ""))
	m.LSim(a, b) // intern both schemas and memoize their pairs
	sims := m.simsFor(a, b)
	names := sims.elementRow(1)
	if got := testing.AllocsPerRun(200, func() { names.sim(1) }); got != 0 {
		t.Errorf("warm memo lookup allocates %.1f objects, want 0", got)
	}
}

// TestLSimConcurrentRowGrowthAndResets runs 8 goroutines over one matcher
// whose caps are tiny (run with -race): a memo generation holds 64 name
// pairs and a token-pair generation 16 token pairs, so generations of
// both reset in the middle of LSim calls, rows start at
// memoRowSlots and double while other callers read them, and the name
// table itself resets as the unique names pile up. Every result must equal
// the reference.
func TestLSimConcurrentRowGrowthAndResets(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := NewMatcher(memoThesaurus())
	m.budget, m.memoCap, m.tokenCap = 40<<10, 64, 16
	ref := NewMatcher(memoThesaurus())
	infos := make([]*SchemaInfo, 10)
	want := make([][]matrix.Matrix, len(infos))
	for i := range infos {
		unique := ""
		if i%3 == 2 {
			unique = fmt.Sprintf("U%d", i)
		}
		infos[i] = m.Analyze(randomSchema(rng, fmt.Sprintf("S%d", i), unique))
	}
	for i, a := range infos {
		for _, b := range infos {
			want[i] = append(want[i], referenceLSim(ref, a, b))
		}
	}

	// One call alone already outgrows a row and a generation of each memo.
	gen, pairs := m.table().memo.gen.Load(), m.table().pairs.gen.Load()
	if !m.LSim(infos[0], infos[1]).Equal(want[0][1]) {
		t.Fatal("LSim differs from the reference")
	}
	tab := m.names.Load()
	if tab.memo.gen.Load() == gen {
		t.Fatal("one LSim call never reset the memo generation: the test would not cover resets")
	}
	if tab.pairs.gen.Load() == pairs {
		t.Fatal("one LSim call never reset the token-pair generation: the test would not cover resets")
	}
	grown := false
	for i := range infos[0].Tokens {
		sims := m.simsFor(infos[0], infos[1])
		names := sims.elementRow(i)
		names.memo.fetch()
		grown = grown || len(names.memo.row.slots) > memoRowSlots
	}
	if !grown {
		t.Fatal("no memo row grew: the test would not cover row growth")
	}

	before := m.names.Load()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(infos)*len(infos); k++ {
				i, j := (k+g)%len(infos), (k/len(infos)+3*g)%len(infos)
				if !m.LSim(infos[i], infos[j]).Equal(want[i][j]) {
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
	if m.names.Load() == before {
		t.Error("the name table never reset under concurrent LSim calls: the test would not cover table resets")
	}
}

// randomTokenSet builds a token set by hand: up to nine tokens of all five
// types, drawn from words that hit the thesaurus (synonyms, a hypernym,
// an abbreviation's expansion), share prefixes or suffixes (the substring
// fallback), spell initialisms, or are empty. Stems are the thesaurus's,
// except now and then one that is not, as a caller's set may hold.
func randomTokenSet(rng *rand.Rand) TokenSet {
	content := []string{"client", "customer", "customers", "vendor", "supplier", "phone", "contact",
		"street", "streets", "address", "addresses", "order", "reorder", "purchase", "unit", "measure",
		"uom", "po", "pu", "stock", "keeping", "sku", "ab", ""}
	pick := func(ws ...string) string { return ws[rng.Intn(len(ws))] }
	var ts TokenSet
	for n := rng.Intn(10); n > 0; n-- {
		var tok Token
		tt := TokenContent // half the tokens, so sums run over several
		if rng.Intn(2) == 0 {
			tt = TokenType(rng.Intn(int(NumTokenTypes)))
		}
		switch tt {
		case TokenContent:
			w := pick(content...)
			tok = Token{Raw: w, Stem: thesaurus.Stem(w), Type: tt}
			if rng.Intn(8) == 0 {
				tok.Stem = pick(content...)
			}
		case TokenConcept:
			w := pick("money", "quantity", "contact")
			tok = Token{Raw: w, Stem: w, Type: tt}
		case TokenCommon:
			w := pick("of", "the", "and", "")
			tok = Token{Raw: w, Stem: w, Type: tt}
		case TokenNumber:
			w := pick("1", "2", "10")
			tok = Token{Raw: w, Stem: w, Type: tt}
		case TokenSymbol:
			w := pick("#", "$")
			tok = Token{Raw: w, Stem: w, Type: tt}
		}
		ts.Tokens = append(ts.Tokens, tok)
	}
	return ts
}

// TestNameSimMatchesReference compares ns computed from interned records —
// through NameSimTS, and through a memo row, first as a miss and then as a
// hit — with referenceNameSim, bit for bit, over every pair of a mix of
// normalized names and hand-built token sets, under the default
// parameters, without the acronym heuristic, and with every type
// weighted.
func TestNameSimMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	th := memoThesaurus()
	var sets []TokenSet
	for _, name := range memoNames {
		sets = append(sets, Normalize(name, th))
	}
	for _, name := range []string{"UOM", "unit_of_measure", "PO", "purchase order", "SKU", "StockKeepingUnit", "AB", "A B"} {
		sets = append(sets, Normalize(name, thesaurus.New()))
	}
	for len(sets) < 120 {
		sets = append(sets, randomTokenSet(rng))
	}
	noAcronyms, allWeighted := DefaultParams(), DefaultParams()
	noAcronyms.DisableAcronymDetection = true
	allWeighted.Weights = [NumTokenTypes]float64{0.4, 0.2, 0.1, 0.2, 0.1}
	for _, p := range []Params{DefaultParams(), noAcronyms, allWeighted} {
		m := NewMatcher(th)
		m.P = p
		tab := m.table()
		for _, a := range sets {
			x := tab.recOf(a)
			for _, b := range sets {
				want := referenceNameSim(p, th, a, b)
				if got := m.NameSimTS(a, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%+v: NameSimTS(%q, %q) = %v, reference %v", p, a, b, got, want)
				}
				y := tab.recOf(b)
				row := rowSims{tab: tab, x: x, ys: []int32{y.id}, yrecs: []*nameRec{y}, memo: tab.memo.row(x.id)}
				for _, lookup := range []string{"miss", "hit"} {
					if got := row.sim(0); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%+v: memo %s ns(%q, %q) = %v, reference %v", p, lookup, a, b, got, want)
					}
				}
			}
		}
		if m.names.Load() != tab {
			t.Fatal("the name table reset: the memo rows above read a stale table")
		}
	}
}

// TestLSimAfterTableReset interns a corpus, makes the name table reset by
// filling a small interner with names of its own, then matches a probe
// analyzed after the reset against the corpus, whose IDs still belong to
// the old table: every table must equal the reference, and the corpus must
// be re-interned into the new table rather than have its old IDs read
// there.
func TestLSimAfterTableReset(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := NewMatcher(memoThesaurus())
	m.budget = 96 << 10
	ref := NewMatcher(memoThesaurus())
	corpus := make([]*SchemaInfo, 6)
	for i := range corpus {
		corpus[i] = m.Analyze(randomSchema(rng, fmt.Sprintf("S%d", i), ""))
	}
	for _, a := range corpus {
		for _, b := range corpus {
			m.LSim(a, b)
		}
	}
	old := m.names.Load()
	for i := 0; m.names.Load() == old; i++ {
		if i == 100 {
			t.Fatal("the name table never reset: the test would not cover resets")
		}
		u := m.Analyze(randomSchema(rng, fmt.Sprintf("U%d", i), fmt.Sprintf("Unique%d", i)))
		m.LSim(u, u)
	}
	probe := m.Analyze(randomSchema(rng, "probe", "Probe"))
	for i, c := range corpus {
		if c.ids.Load().gen == m.names.Load().gen {
			t.Fatalf("corpus schema %d already has IDs in the new table", i)
		}
		for _, pair := range [][2]*SchemaInfo{{probe, c}, {c, probe}} {
			if got, want := m.LSim(pair[0], pair[1]), referenceLSim(ref, pair[0], pair[1]); !got.Equal(want) {
				t.Fatalf("%s×%s after a reset: LSim differs from the reference (max diff %g)",
					pair[0].Schema.Name, pair[1].Schema.Name, got.MaxAbsDiff(want))
			}
		}
		if gen := m.names.Load().gen; c.ids.Load().gen != gen || probe.ids.Load().gen != gen {
			t.Fatalf("corpus schema %d: the pair was not matched in the current table", i)
		}
	}
}
