package linguistic

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/thesaurus"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	p.Weights[TokenContent] = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	p = DefaultParams()
	p.Weights[TokenContent] = 0.9
	if err := p.Validate(); err == nil {
		t.Error("weights summing past 1 accepted")
	}
	p = DefaultParams()
	p.Thns = 1.5
	if err := p.Validate(); err == nil {
		t.Error("thns out of range accepted")
	}
}

// nameSim is ns of two raw names: NameSimTS over their normalizations.
func nameSim(m *Matcher, a, b string) float64 {
	return m.NameSimTS(Normalize(a, m.Th), Normalize(b, m.Th))
}

func TestNameSimPaperExamples(t *testing.T) {
	m := NewMatcher(thesaurus.Base())
	// Short forms, acronyms, synonyms (paper §4): Qty~Quantity,
	// UoM~UnitOfMeasure, Bill~Invoice all resolve to 1.
	for _, c := range [][2]string{
		{"Qty", "Quantity"},
		{"UOM", "UnitOfMeasure"},
		{"Bill", "Invoice"},
		{"PO", "PurchaseOrder"},
		{"Num", "Number"},
	} {
		if got := nameSim(m, c[0], c[1]); got < 0.99 {
			t.Errorf("NameSim(%q,%q) = %v, want 1", c[0], c[1], got)
		}
	}
	// Identical names.
	if got := nameSim(m, "Street", "Street"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	// The Bill~Invoice synonym must separate POBillTo/InvoiceTo from
	// POBillTo/DeliverTo (the paper's City-Street disambiguation depends
	// on it).
	bill := nameSim(m, "POBillTo", "InvoiceTo")
	ship := nameSim(m, "POBillTo", "DeliverTo")
	if bill <= ship {
		t.Errorf("NameSim(POBillTo,InvoiceTo)=%v should exceed (POBillTo,DeliverTo)=%v", bill, ship)
	}
	if bill < 0.4 {
		t.Errorf("NameSim(POBillTo,InvoiceTo)=%v too low", bill)
	}
	// Prefix/suffix variation (canonical example 3): Address vs
	// StreetAddress share the token address.
	if got := nameSim(m, "Address", "StreetAddress"); got < 0.4 {
		t.Errorf("NameSim(Address,StreetAddress) = %v, want >= 0.4", got)
	}
	if got := nameSim(m, "Name", "CustomerName"); got < 0.4 {
		t.Errorf("NameSim(Name,CustomerName) = %v, want >= 0.4", got)
	}
	// Unrelated names stay low.
	if got := nameSim(m, "Quantity", "Street"); got > 0.3 {
		t.Errorf("NameSim(Quantity,Street) = %v, want <= 0.3", got)
	}
}

func TestNameSimWithoutThesaurus(t *testing.T) {
	m := NewMatcher(nil)
	// Equal stems still match without any thesaurus.
	if got := nameSim(m, "Lines", "line"); got < 0.99 {
		t.Errorf("NameSim(Lines,line) = %v", got)
	}
	// Synonyms do not.
	if got := nameSim(m, "Bill", "Invoice"); got != 0 {
		t.Errorf("NameSim(Bill,Invoice) without thesaurus = %v, want 0", got)
	}
}

// Properties: NameSim is symmetric (to floating-point summation order),
// bounded, and 1 on identical names.
func TestNameSimProperties(t *testing.T) {
	m := NewMatcher(thesaurus.Base())
	const eps = 1e-9
	f := func(a, b string) bool {
		s := nameSim(m, a, b)
		if s < 0 || s > 1+eps {
			return false
		}
		d := nameSim(m, b, a) - s
		if d < -eps || d > eps {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	names := []string{"PO", "POLines", "ItemNumber", "Street1", "UnitPrice"}
	for _, n := range names {
		if got := nameSim(m, n, n); got < 0.999 {
			t.Errorf("NameSim(%q,%q) = %v, want 1", n, n, got)
		}
	}
}

func buildAddressSchema(name, containerName string) *model.Schema {
	s := model.New(name)
	addr := s.AddChild(s.Root(), containerName, model.KindElement)
	street := s.AddChild(addr, "Street", model.KindColumn)
	street.Type = model.DTString
	city := s.AddChild(addr, "City", model.KindColumn)
	city.Type = model.DTString
	return s
}

func TestAnalyzeCategories(t *testing.T) {
	m := NewMatcher(thesaurus.Base())
	s := buildAddressSchema("S1", "Address")
	si := m.Analyze(s)
	if len(si.Tokens) != s.Len() {
		t.Fatalf("Tokens len = %d, want %d", len(si.Tokens), s.Len())
	}
	// Street and City must share the container:Address category.
	var street, city *model.Element
	model.PreOrder(s.Root(), func(e *model.Element) {
		switch e.Name {
		case "Street":
			street = e
		case "City":
			city = e
		}
	})
	shared := false
	for _, ci := range si.CategoriesOf(street.ID()) {
		for _, cj := range si.CategoriesOf(city.ID()) {
			if ci == cj && si.Categories[ci].Name == "container:S1.Address" {
				shared = true
			}
		}
	}
	if !shared {
		t.Errorf("Street and City do not share the Address container category: %+v", si.Categories)
	}
	// Both are in the text data-type category.
	foundText := false
	for _, c := range si.Categories {
		if c.Name == "type:text" && len(c.Members) == 2 {
			foundText = true
		}
	}
	if !foundText {
		t.Errorf("type:text category missing or wrong: %+v", si.Categories)
	}
}

func TestAnalyzeSkipsNotInstantiated(t *testing.T) {
	m := NewMatcher(thesaurus.Base())
	s := model.New("S")
	tbl := s.AddChild(s.Root(), "T", model.KindTable)
	key := s.AddChild(tbl, "pk", model.KindKey)
	key.NotInstantiated = true
	si := m.Analyze(s)
	if cats := si.CategoriesOf(key.ID()); len(cats) != 0 {
		t.Errorf("not-instantiated element got categories: %v", cats)
	}
}

func TestLSimScalesAndPrunes(t *testing.T) {
	m := NewMatcher(thesaurus.Base())
	s1 := buildAddressSchema("S1", "Address")
	s2 := buildAddressSchema("S2", "Address")
	a := m.Analyze(s1)
	b := m.Analyze(s2)
	lsim := m.LSim(a, b)

	find := func(s *model.Schema, name string) *model.Element {
		var out *model.Element
		model.PreOrder(s.Root(), func(e *model.Element) {
			if e.Name == name {
				out = e
			}
		})
		return out
	}
	st1, st2 := find(s1, "Street"), find(s2, "Street")
	ci2 := find(s2, "City")
	if got := lsim.At(st1.ID(), st2.ID()); got < 0.99 {
		t.Errorf("lsim(Street,Street) = %v, want ~1", got)
	}
	cross := lsim.At(st1.ID(), ci2.ID())
	if cross >= lsim.At(st1.ID(), st2.ID()) {
		t.Errorf("lsim(Street,City)=%v not below lsim(Street,Street)", cross)
	}
	// Bounds.
	for i := 0; i < lsim.Rows(); i++ {
		for j := 0; j < lsim.Cols(); j++ {
			if v := lsim.At(i, j); v < 0 || v > 1 {
				t.Fatalf("lsim.At(%d, %d)=%v out of range", i, j, v)
			}
		}
	}
}

func TestLSimZeroWithoutCompatibleCategories(t *testing.T) {
	m := NewMatcher(thesaurus.New()) // empty thesaurus: no concepts
	s1 := model.New("Alpha")
	a1 := s1.AddChild(s1.Root(), "Zebra", model.KindElement)
	x1 := s1.AddChild(a1, "Xylophone", model.KindColumn)
	x1.Type = model.DTInt
	s2 := model.New("Beta")
	b1 := s2.AddChild(s2.Root(), "Quokka", model.KindElement)
	y1 := s2.AddChild(b1, "Yurt", model.KindColumn)
	y1.Type = model.DTString
	lsim := m.LSim(m.Analyze(s1), m.Analyze(s2))
	// Xylophone(int) and Yurt(string): containers Zebra/Quokka are
	// dissimilar, data types differ; no compatible category -> lsim 0.
	if got := lsim.At(x1.ID(), y1.ID()); got != 0 {
		t.Errorf("lsim without compatible categories = %v, want 0", got)
	}
}

// TestCompatiblePairsThreshold: category pairs whose keyword sets are
// name-similar at Thns or above are compatible, and only those scale
// lsim: every element pair's lsim is its ns times the best compatible
// category pair's ns, 0 when none is.
func TestCompatiblePairsThreshold(t *testing.T) {
	m := NewMatcher(thesaurus.Base())
	s1 := buildAddressSchema("S1", "Address")
	s2 := buildAddressSchema("S2", "Warehouse")
	a, b := m.Analyze(s1), m.Analyze(s2)
	lsim := m.LSim(a, b)
	// The two type:text categories must be compatible (identical keyword).
	found := false
	for _, ca := range a.Categories {
		for _, cb := range b.Categories {
			if ca.Name == "type:text" && cb.Name == "type:text" {
				found = true
				if ns := m.NameSimTS(ca.Keywords, cb.Keywords); ns < 0.99 {
					t.Errorf("type:text compatibility = %v", ns)
				}
			}
		}
	}
	if !found {
		t.Error("type:text categories not compatible")
	}
	// No pair below the threshold may scale an element pair.
	for x := 0; x < s1.Len(); x++ {
		for y := 0; y < s2.Len(); y++ {
			scale := 0.0
			for _, i := range a.CategoriesOf(x) {
				for _, j := range b.CategoriesOf(y) {
					if ns := m.NameSimTS(a.Categories[i].Keywords, b.Categories[j].Keywords); ns >= m.P.Thns && ns > scale {
						scale = ns
					}
				}
			}
			want := 0.0
			if scale > 0 {
				want = m.NameSimTS(a.Tokens[x], b.Tokens[y]) * scale
			}
			if got := lsim.At(x, y); got != want {
				t.Errorf("lsim(%d, %d) = %v, want %v from the compatible category pairs", x, y, got, want)
			}
		}
	}
}

func TestTokenSimAcrossTypesIsZero(t *testing.T) {
	m := NewMatcher(thesaurus.Base())
	one := func(raw string, tt TokenType) TokenSet {
		return TokenSet{Tokens: []Token{{Raw: raw, Stem: raw, Type: tt}}}
	}
	if got := m.NameSimTS(one("1", TokenNumber), one("1", TokenContent)); got != 0 {
		t.Errorf("cross-type token sim = %v, want 0", got)
	}
	if got := m.NameSimTS(one("1", TokenNumber), one("2", TokenNumber)); got != 0 {
		t.Errorf("different numbers = %v, want 0", got)
	}
	if got := m.NameSimTS(one("1", TokenNumber), one("1", TokenNumber)); got != 1 {
		t.Errorf("same number = %v, want 1", got)
	}
}
