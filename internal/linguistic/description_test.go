package linguistic

import (
	"testing"

	"repro/internal/model"
	"repro/internal/thesaurus"
)

// descSim is the similarity of two descriptions as BlendDescriptions
// scores them: NameSimTS over their normalized content and concept tokens,
// 0 when either has none.
func descSim(m *Matcher, a, b string) float64 {
	ta, tb := filterDescTokens(Normalize(a, m.Th)), filterDescTokens(Normalize(b, m.Th))
	if len(ta.Tokens) == 0 || len(tb.Tokens) == 0 {
		return 0
	}
	return m.NameSimTS(ta, tb)
}

func TestDescriptionSim(t *testing.T) {
	m := NewMatcher(thesaurus.Base())
	// Similar documentation, different phrasing.
	a := "The number of the customer placing the order"
	b := "Customer number for the order"
	if got := descSim(m, a, b); got < 0.6 {
		t.Errorf("descSim(similar docs) = %v, want >= 0.6", got)
	}
	// Unrelated documentation.
	c := "Shipping weight in kilograms"
	if got := descSim(m, a, c); got > 0.3 {
		t.Errorf("descSim(unrelated docs) = %v, want <= 0.3", got)
	}
	// Missing descriptions never match.
	if descSim(m, "", b) != 0 || descSim(m, a, "") != 0 {
		t.Error("empty description must score 0")
	}
	// Stop-word-only descriptions score 0, not NaN.
	if got := descSim(m, "of the", "for a"); got != 0 {
		t.Errorf("stop-word-only descriptions = %v", got)
	}
}

func TestBlendDescriptions(t *testing.T) {
	m := NewMatcher(thesaurus.Base())
	s1 := model.New("A")
	t1 := s1.AddChild(s1.Root(), "T042", model.KindTable)
	f1 := s1.AddChild(t1, "F1", model.KindColumn)
	f1.Type = model.DTInt
	f1.Description = "unique customer number"
	f2 := s1.AddChild(t1, "F2", model.KindColumn)
	f2.Type = model.DTString // no description

	s2 := model.New("B")
	t2 := s2.AddChild(s2.Root(), "Customer", model.KindTable)
	cn := s2.AddChild(t2, "CustNo", model.KindColumn)
	cn.Type = model.DTInt
	cn.Description = "the customer's unique number"
	nm := s2.AddChild(t2, "Name", model.KindColumn)
	nm.Type = model.DTString

	a := m.Analyze(s1)
	b := m.Analyze(s2)
	lsim := m.LSim(a, b)
	before := lsim.At(f1.ID(), cn.ID())
	noDescBefore := lsim.At(f2.ID(), nm.ID())

	m.BlendDescriptions(a, b, lsim, 0.5)
	after := lsim.At(f1.ID(), cn.ID())
	if after <= before {
		t.Errorf("description blend did not raise lsim: %v -> %v", before, after)
	}
	if after < 0.3 {
		t.Errorf("blended lsim = %v, want substantial", after)
	}
	// Pairs without descriptions are untouched.
	if lsim.At(f2.ID(), nm.ID()) != noDescBefore {
		t.Error("pair without descriptions was modified")
	}
	// Weight 0 is a no-op.
	snapshot := lsim.At(f1.ID(), cn.ID())
	m.BlendDescriptions(a, b, lsim, 0)
	if lsim.At(f1.ID(), cn.ID()) != snapshot {
		t.Error("weight 0 modified the matrix")
	}
	// Weight above 1 clamps rather than exploding.
	m.BlendDescriptions(a, b, lsim, 5)
	if v := lsim.At(f1.ID(), cn.ID()); v < 0 || v > 1 {
		t.Errorf("clamped blend out of range: %v", v)
	}
}
