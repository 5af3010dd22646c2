package linguistic

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/thesaurus"
)

func TestJaccardTypePrefixSeparatesConceptFromContent(t *testing.T) {
	// A concept token must not collide with an identically spelled content
	// token: "money" as a concept tag is a different signature key than
	// "money" the word, so the two never count as shared in TokenJaccard.
	content := TokenSet{Tokens: []Token{{Raw: "money", Stem: "money", Type: TokenContent}}}
	concept := TokenSet{Tokens: []Token{{Raw: "money", Stem: "money", Type: TokenConcept}}}
	m := NewMatcher(thesaurus.Base())
	bag := func(ts TokenSet) model.Signature {
		si := &SchemaInfo{Schema: model.New("S"), Tokens: []TokenSet{ts}}
		return model.NewSignature(1, 1, m.SignatureTokens(si))
	}
	a, b := bag(content), bag(concept)
	if len(a.Tokens) != 1 || len(b.Tokens) != 1 {
		t.Fatalf("want one key per bag, got %v and %v", a.Tokens, b.Tokens)
	}
	if j := a.TokenJaccard(b); j != 0 {
		t.Errorf("concept vs content collision: keys %v and %v, TokenJaccard = %v, want 0", a.Tokens, b.Tokens, j)
	}
}

func TestSignatureTokensCoverNamesAndDescriptions(t *testing.T) {
	s := model.New("Orders")
	e := s.AddChild(s.Root(), "OrderDate", model.KindColumn)
	e.Description = "the shipment timestamp"

	m := NewMatcher(thesaurus.Base())
	si := m.Analyze(s)
	toks := m.SignatureTokens(si)
	want := map[string]bool{}
	for _, k := range toks {
		want[k] = true
	}
	for _, stem := range []string{thesaurus.Stem("order"), thesaurus.Stem("date"), thesaurus.Stem("shipment"), thesaurus.Stem("timestamp")} {
		if !want[stem] {
			t.Errorf("signature tokens missing %q; got %v", stem, toks)
		}
	}
	// "the" is a stop word and must not appear under any key.
	for _, k := range toks {
		if k == "the" || k == "common:the" {
			t.Errorf("signature tokens include stop word: %v", toks)
		}
	}
}

func TestSignatureTokensStableAndTyped(t *testing.T) {
	s := model.New("Orders")
	s.AddChild(s.Root(), "Street1", model.KindColumn) // splits into content + number
	m := NewMatcher(thesaurus.Base())

	toks := m.SignatureTokens(m.Analyze(s))
	keys := map[string]bool{}
	for _, k := range toks {
		keys[k] = true
	}
	if !keys[thesaurus.Stem("street")] {
		t.Errorf("content token keyed by its stem missing; toks %v", toks)
	}
	if numKey := TokenNumber.String() + ":1"; !keys[numKey] {
		t.Errorf("numeric token missing its type-prefixed key %q; toks %v", numKey, toks)
	}

	// Stability: two analyses of the same schema produce identical bags.
	sig1 := model.NewSignature(1, 1, toks)
	sig2 := model.NewSignature(1, 1, m.SignatureTokens(m.Analyze(s)))
	if !reflect.DeepEqual(sig1, sig2) {
		t.Errorf("re-analysis changed the bag: %v vs %v", sig1.Tokens, sig2.Tokens)
	}
}

func TestSignatureTokensAffinityRanksRelatedSchemas(t *testing.T) {
	build := func(name string, cols ...string) *model.Schema {
		s := model.New(name)
		tbl := s.AddChild(s.Root(), name+"Table", model.KindTable)
		for _, c := range cols {
			s.AddChild(tbl, c, model.KindColumn)
		}
		return s
	}
	m := NewMatcher(thesaurus.Base())
	sig := func(s *model.Schema) model.Signature {
		return model.NewSignature(s.Len(), s.Len(), m.SignatureTokens(m.Analyze(s)))
	}
	probe := sig(build("Orders", "OrderID", "Customer", "OrderDate", "Amount"))
	near := sig(build("Purchases", "PurchaseID", "Customer", "PurchaseDate", "Total"))
	far := sig(build("Telemetry", "SensorID", "Voltage", "Reading", "Epoch"))
	an, af := probe.Affinity(near), probe.Affinity(far)
	if an <= af {
		t.Errorf("related schema affinity %v must exceed unrelated %v", an, af)
	}
	if self := probe.Affinity(probe); math.Abs(self-1) > 1e-12 {
		t.Errorf("self affinity = %v, want 1", self)
	}
}
