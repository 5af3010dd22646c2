package mapping

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/schematree"
	"repro/internal/structural"
)

// threeWayFixture builds A -> B and B -> C mappings over three copies of
// the same small schema, so composition A -> C is fully determined. It
// also returns the direct A -> C mapping as the oracle for agreement
// tests.
func threeWayFixture(t *testing.T) (ab, bc, direct *Mapping) {
	t.Helper()
	build := func(name string) *schematree.Tree {
		s := model.New(name)
		c := s.AddChild(s.Root(), "Customer", model.KindTable)
		s.AddChild(c, "ID", model.KindColumn).Type = model.DTInt
		s.AddChild(c, "Name", model.KindColumn).Type = model.DTString
		tr, err := schematree.Build(s, schematree.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b, c := build("A"), build("B"), build("C")
	match := func(ts, tt *schematree.Tree) *Mapping {
		lsim := matrix.New(ts.Len(), tt.Len())
		for i := 0; i < ts.Len(); i++ {
			for j := 0; j < tt.Len(); j++ {
				if ts.Nodes[i].Name() == tt.Nodes[j].Name() {
					lsim.Set(i, j, 1)
				}
			}
		}
		p := structural.DefaultParams()
		res := structural.TreeMatch(ts, tt, lsim, p)
		structural.SecondPass(res, ts, tt, lsim, p)
		return Generate(ts, tt, res, lsim, DefaultOptions())
	}
	return match(a, b), match(b, c), match(a, c)
}

func TestInvert(t *testing.T) {
	ab, _, _ := threeWayFixture(t)
	inv := ab.Invert()
	if inv.SourceSchema != "B" || inv.TargetSchema != "A" {
		t.Errorf("inverted schemas = %s -> %s", inv.SourceSchema, inv.TargetSchema)
	}
	if len(inv.Leaves) != len(ab.Leaves) {
		t.Fatalf("leaf count changed on invert")
	}
	for i, e := range inv.Leaves {
		orig := ab.Leaves[i]
		if e.Source != orig.Target || e.Target != orig.Source {
			t.Errorf("element %d not swapped", i)
		}
		if e.WSim != orig.WSim {
			t.Errorf("similarity changed on invert")
		}
	}
	// Double inversion is the identity.
	back := inv.Invert()
	if back.String() != ab.String() {
		t.Error("double inversion is not the identity")
	}
}

func TestCompose(t *testing.T) {
	ab, bc, _ := threeWayFixture(t)
	ac := ab.Compose(bc)
	if ac.SourceSchema != "A" || ac.TargetSchema != "C" {
		t.Errorf("composed schemas = %s -> %s", ac.SourceSchema, ac.TargetSchema)
	}
	// Every A leaf chains through its B namesake to its C namesake.
	for _, want := range [][2]string{
		{"A.Customer.ID", "C.Customer.ID"},
		{"A.Customer.Name", "C.Customer.Name"},
	} {
		if !ac.HasPair(want[0], want[1]) {
			t.Errorf("composition missing %v\n%s", want, ac)
		}
	}
	// Similarities multiply, so they can only shrink.
	for _, e := range ac.Leaves {
		if e.WSim > 1 || e.WSim <= 0 {
			t.Errorf("composed wsim out of range: %v", e.WSim)
		}
		for _, e1 := range ab.Leaves {
			if e1.Source == e.Source && e.WSim > e1.WSim {
				t.Errorf("composition increased similarity")
			}
		}
	}
	// Non-leaf chains survive too (Customer table through B).
	if !ac.HasPair("A.Customer", "C.Customer") {
		t.Errorf("non-leaf composition missing\n%s", ac)
	}
}

// TestComposeAgreesWithDirect is the agreement property reusing earlier
// match results through an intermediate schema rests on: composing A -> B with B -> C yields exactly the correspondence pairs a
// direct A -> C match finds, and — because per-hop similarities multiply
// — never claims more confidence than the direct match does.
func TestComposeAgreesWithDirect(t *testing.T) {
	ab, bc, direct := threeWayFixture(t)
	composed := ab.Compose(bc)

	directSim := make(map[[2]string]float64, len(direct.Leaves))
	for _, e := range direct.Leaves {
		directSim[[2]string{e.Source.Path(), e.Target.Path()}] = e.WSim
	}
	if len(composed.Leaves) != len(direct.Leaves) {
		t.Fatalf("composed has %d leaf pairs, direct has %d:\n%s\nvs\n%s",
			len(composed.Leaves), len(direct.Leaves), composed, direct)
	}
	for _, e := range composed.Leaves {
		key := [2]string{e.Source.Path(), e.Target.Path()}
		ws, ok := directSim[key]
		if !ok {
			t.Errorf("composed pair %s <-> %s not in the direct mapping", key[0], key[1])
			continue
		}
		if e.WSim > ws+1e-12 {
			t.Errorf("composed pair %s <-> %s claims wsim %v above the direct %v",
				key[0], key[1], e.WSim, ws)
		}
	}

	// Non-leaf structure chains identically.
	for _, e := range direct.NonLeaves {
		if !composed.HasPair(e.Source.Path(), e.Target.Path()) {
			t.Errorf("direct non-leaf pair %s <-> %s missing from the composition",
				e.Source.Path(), e.Target.Path())
		}
	}
}

func TestComposeDropsUnchainedElements(t *testing.T) {
	ab, bc, _ := threeWayFixture(t)
	// Break the chain: remove B's ID link from the second mapping.
	var filtered []Element
	for _, e := range bc.Leaves {
		if e.Source.Name() != "ID" {
			filtered = append(filtered, e)
		}
	}
	bc.Leaves = filtered
	ac := ab.Compose(bc)
	if ac.HasPair("A.Customer.ID", "C.Customer.ID") {
		t.Error("composition invented a chain for a dropped element")
	}
	if !ac.HasPair("A.Customer.Name", "C.Customer.Name") {
		t.Error("composition lost an intact chain")
	}
}
