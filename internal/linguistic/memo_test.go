package linguistic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/thesaurus"
)

// referenceLSim is LSim without the memo: the category scale reduced into a
// map from per-pair NameSimTS calls, then one NameSimTS per scaled element
// pair — the definition of §5.3, transcribed directly.
func referenceLSim(m *Matcher, a, b *SchemaInfo) matrix.Matrix {
	scale := map[[2]int]float64{}
	for _, ca := range a.Categories {
		for _, cb := range b.Categories {
			ns := m.NameSimTS(ca.Keywords, cb.Keywords)
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
		out.Set(p[0], p[1], m.NameSimTS(a.Tokens[p[0]], b.Tokens[p[1]])*s)
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
	m.memoCap = 2 * memoMinSlots
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
// a matcher with tiny caps: the interner, the memo and the token cache
// must stay within their caps while every result still equals a fresh
// matcher's.
func TestLinguisticCachesBounded(t *testing.T) {
	const nameCap, memoCap, tokenCap = 64, 128, 128
	m := NewMatcher(memoThesaurus())
	m.nameCap, m.memoCap = nameCap, memoCap
	m.simCache = newSimCache(tokenCap)
	rng := rand.New(rand.NewSource(13))
	probe := m.Analyze(randomSchema(rng, "probe", ""))
	for i := 0; i < 60; i++ {
		s := m.Analyze(randomSchema(rng, fmt.Sprintf("S%d", i), fmt.Sprintf("X%d", i)))
		for _, pair := range [][2]*SchemaInfo{{probe, s}, {s, probe}, {s, s}} {
			fresh := NewMatcher(memoThesaurus())
			want := fresh.LSim(fresh.Analyze(pair[0].Schema), fresh.Analyze(pair[1].Schema))
			if got := m.LSim(pair[0], pair[1]); !got.Equal(want) {
				t.Fatalf("schema %d: LSim differs from a fresh matcher's", i)
			}
		}
		tab := m.names.Load()
		if n := len(tab.ids); n > nameCap {
			t.Fatalf("schema %d: %d interned names, cap %d", i, n, nameCap)
		}
		if n := tab.memo.Load().used.Load(); n > memoCap {
			t.Fatalf("schema %d: %d memoized pairs, cap %d", i, n, memoCap)
		}
		for k := range m.simCache.shards {
			if n := len(m.simCache.shards[k].m); n > m.simCache.shardCap {
				t.Fatalf("schema %d: token cache stripe %d holds %d pairs, cap %d", i, k, n, m.simCache.shardCap)
			}
		}
	}
}

// A pair with more distinct names than the name cap bypasses the memo and
// still computes the reference values.
func TestLSimPairBeyondNameCap(t *testing.T) {
	m := NewMatcher(memoThesaurus())
	m.nameCap = 4
	rng := rand.New(rand.NewSource(21))
	a := m.Analyze(randomSchema(rng, "A", ""))
	b := m.Analyze(randomSchema(rng, "B", ""))
	if got, want := m.LSim(a, b), referenceLSim(NewMatcher(memoThesaurus()), a, b); !got.Equal(want) {
		t.Fatal("LSim beyond the name cap differs from the reference")
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
	if got := testing.AllocsPerRun(200, func() { sims.element(a, b, 1, 1) }); got != 0 {
		t.Errorf("warm memo lookup allocates %.1f objects, want 0", got)
	}
}
