package dtd

import (
	"testing"

	"repro/internal/model"
	"repro/internal/schematree"
)

const poDTD = `
<!-- purchase order -->
<!ELEMENT PO (POHeader, POLines, POShipTo?, POBillTo?)>
<!ELEMENT POHeader EMPTY>
<!ATTLIST POHeader
  PONumber CDATA #REQUIRED
  PODate   CDATA #IMPLIED>
<!ELEMENT POLines (Item*)>
<!ATTLIST POLines count CDATA #IMPLIED>
<!ELEMENT Item EMPTY>
<!ATTLIST Item
  line CDATA #REQUIRED
  qty  CDATA #REQUIRED
  uom  CDATA #IMPLIED>
<!ELEMENT POShipTo (#PCDATA)>
<!ELEMENT POBillTo (#PCDATA)>
`

func find(s *model.Schema, path string) *model.Element {
	var out *model.Element
	model.PreOrder(s.Root(), func(e *model.Element) {
		if e.Path() == path {
			out = e
		}
	})
	return out
}

func TestParsePODTD(t *testing.T) {
	s, err := Parse("", poDTD)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "PO" || s.Root().Name != "PO" {
		t.Errorf("root = %q/%q, want PO", s.Name, s.Root().Name)
	}
	if e := find(s, "PO.POLines.Item.qty"); e == nil {
		t.Fatalf("Item.qty missing\n%s", s.Dump())
	}
	if e := find(s, "PO.POHeader.PODate"); e == nil || !e.Optional {
		t.Error("#IMPLIED attribute should be optional")
	}
	if e := find(s, "PO.POHeader.PONumber"); e == nil || e.Optional {
		t.Error("#REQUIRED attribute should not be optional")
	}
	// Optional content-model members: POShipTo? and Item*.
	if e := find(s, "PO.POShipTo"); e == nil || !e.Optional {
		t.Error("POShipTo? should be optional")
	}
	if e := find(s, "PO.POLines.Item"); e == nil || !e.Optional {
		t.Error("Item* should be optional")
	}
	// #PCDATA-only elements become string leaves.
	if e := find(s, "PO.POBillTo"); e == nil || e.Type != model.DTString {
		t.Error("PCDATA element should have string type")
	}
}

const idDTD = `
<!ELEMENT DB (Customer*, Order*)>
<!ELEMENT Customer EMPTY>
<!ATTLIST Customer
  id   ID    #REQUIRED
  name CDATA #REQUIRED>
<!ELEMENT Order EMPTY>
<!ATTLIST Order
  oid      ID    #REQUIRED
  customer IDREF #REQUIRED>
`

func TestIDREFBecomesRefInt(t *testing.T) {
	s, err := Parse("", idDTD)
	if err != nil {
		t.Fatal(err)
	}
	id := find(s, "DB.Customer.id")
	if id == nil || id.Type != model.DTID || !id.IsKey {
		t.Errorf("Customer.id = %v", id)
	}
	ref := find(s, "DB.Order.customer")
	if ref == nil || ref.Type != model.DTIDRef {
		t.Errorf("Order.customer = %v", ref)
	}
	st := s.ComputeStats()
	if st.RefInts != 1 {
		t.Fatalf("RefInts = %d, want 1\n%s", st.RefInts, s.Dump())
	}
	ri := find(s, "DB.Order-customer-ref")
	if ri == nil {
		t.Fatalf("refint missing\n%s", s.Dump())
	}
	// The IDREF references all ID keys in the document (1:n).
	if len(ri.References()) != 2 {
		t.Errorf("refint references %d keys, want 2 (both IDs)", len(ri.References()))
	}
	// Expansion yields a join view.
	tr, err := schematree.Build(s, schematree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.ComputeStats().JoinViews != 1 {
		t.Errorf("join views = %d\n%s", tr.ComputeStats().JoinViews, tr.Dump())
	}
}

func TestChoiceGroupOptional(t *testing.T) {
	doc := `
<!ELEMENT R ((A | B), C)>
<!ELEMENT A EMPTY>
<!ELEMENT B EMPTY>
<!ELEMENT C EMPTY>
`
	s, err := Parse("", doc)
	if err != nil {
		t.Fatal(err)
	}
	if e := find(s, "R.A"); e == nil || !e.Optional {
		t.Error("choice member A should be optional")
	}
	if e := find(s, "R.B"); e == nil || !e.Optional {
		t.Error("choice member B should be optional")
	}
	if e := find(s, "R.C"); e == nil || e.Optional {
		t.Error("sequence member C should be required")
	}
}

func TestEnumerationAttribute(t *testing.T) {
	doc := `
<!ELEMENT R EMPTY>
<!ATTLIST R kind (a | b | c) "a">
`
	s, err := Parse("", doc)
	if err != nil {
		t.Fatal(err)
	}
	e := find(s, "R.kind")
	if e == nil || e.Type != model.DTEnum {
		t.Errorf("enumeration attribute = %v", e)
	}
	if !e.Optional {
		t.Error("attribute with default value should be optional")
	}
}

func TestRootDetection(t *testing.T) {
	// B references A, so B is the root even though A is declared first.
	doc := `
<!ELEMENT A EMPTY>
<!ELEMENT B (A)>
`
	s, err := Parse("", doc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Root().Name != "B" {
		t.Errorf("root = %q, want B\n%s", s.Root().Name, s.Dump())
	}
}

func TestRecursiveContentModelRejected(t *testing.T) {
	doc := `
<!ELEMENT A (B)>
<!ELEMENT B (A?)>
`
	if _, err := Parse("", doc); err == nil {
		t.Error("recursive content model accepted")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             ``,
		"unterminated":      `<!ELEMENT A (B)`,
		"unbalanced parens": `<!ELEMENT A (B, (C)>`,
		"duplicate element": `<!ELEMENT A EMPTY> <!ELEMENT A EMPTY>`,
		"bad comment":       `<!-- nope`,
		// An unterminated quoted literal once sliced past the body's end.
		"unterminated default":       `<!ATTLIST a b CDATA "x>`,
		"unterminated quoted name":   `<!ATTLIST a "x>`,
		"unterminated after element": `<!ELEMENT a EMPTY><!ATTLIST a b CDATA 'x>`,
	}
	for name, doc := range cases {
		if _, err := Parse("", doc); err == nil {
			t.Errorf("%s: accepted %q", name, doc)
		}
	}
}

func TestSchemaNameOverride(t *testing.T) {
	s, err := Parse("MySchema", poDTD)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "MySchema" {
		t.Errorf("Name = %q", s.Name)
	}
	if s.Root().Name != "PO" {
		t.Errorf("root element = %q, want PO", s.Root().Name)
	}
}

func TestSharedChildDuplicatedPerContext(t *testing.T) {
	doc := `
<!ELEMENT R (X, Y)>
<!ELEMENT X (Addr)>
<!ELEMENT Y (Addr)>
<!ELEMENT Addr EMPTY>
<!ATTLIST Addr street CDATA #REQUIRED>
`
	s, err := Parse("", doc)
	if err != nil {
		t.Fatal(err)
	}
	if find(s, "R.X.Addr.street") == nil || find(s, "R.Y.Addr.street") == nil {
		t.Errorf("shared child not materialized in both contexts:\n%s", s.Dump())
	}
}
