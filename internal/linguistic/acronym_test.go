package linguistic

import (
	"testing"

	"repro/internal/thesaurus"
)

// TestAcronymDetection: initialisms match without any thesaurus entry.
func TestAcronymDetection(t *testing.T) {
	m := NewMatcher(thesaurus.New()) // EMPTY thesaurus
	cases := [][2]string{
		{"UOM", "UnitOfMeasure"},
		{"PO", "PurchaseOrder"},
		{"SSN", "SocialSecurityNumber"},
		{"DOB", "DateOfBirth"},
	}
	for _, c := range cases {
		if got := nameSim(m, c[0], c[1]); got < 0.7 {
			t.Errorf("NameSim(%q,%q) = %v, want >= 0.7 (acronym heuristic)", c[0], c[1], got)
		}
	}
	// Non-initialisms stay unmatched.
	for _, c := range [][2]string{
		{"UOM", "PurchaseOrder"},      // wrong initials
		{"X", "ExtraLong"},            // too short
		{"ABCDEFG", "AlphaBetaGamma"}, // too long / wrong count
	} {
		if got := nameSim(m, c[0], c[1]); got > 0.3 {
			t.Errorf("NameSim(%q,%q) = %v, want low", c[0], c[1], got)
		}
	}
	// Common words participate: "UoM" needs "of" counted.
	if got := nameSim(m, "UOM", "unit_of_measure"); got < 0.7 {
		t.Errorf("NameSim(UOM, unit_of_measure) = %v (common word in initialism)", got)
	}
}

func TestAcronymDetectionDisabled(t *testing.T) {
	m := NewMatcher(thesaurus.New())
	m.P.DisableAcronymDetection = true
	if got := nameSim(m, "UOM", "UnitOfMeasure"); got > 0.3 {
		t.Errorf("heuristic fired despite being disabled: %v", got)
	}
}

// The floor never outranks an exact or thesaurus match.
func TestAcronymIsOnlyAFloor(t *testing.T) {
	m := NewMatcher(thesaurus.Base())
	if got := nameSim(m, "UOM", "UnitOfMeasure"); got < 0.99 {
		t.Errorf("thesaurus expansion should dominate: %v", got)
	}
}
