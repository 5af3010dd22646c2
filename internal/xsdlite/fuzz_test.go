package xsdlite

import (
	"strings"
	"testing"

	"repro/internal/model/modeltest"
	"repro/internal/schematree"
)

// FuzzParseXSD asserts the importer's crash-freedom contract: no input
// panics, and every accepted document yields a schema that validates and
// expands through schematree.Build (the Prepare pipeline's per-schema
// phase), tolerating only the deliberate node-cap rejection, and survives
// a round trip through the native JSON format with the same element count
// and paths.
func FuzzParseXSD(f *testing.F) {
	f.Add([]byte(`<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="R"><xs:complexType>
    <xs:attribute name="a" type="xs:int"/>
  </xs:complexType></xs:element>
</xs:schema>`))
	f.Add([]byte(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="Addr"><xs:sequence>
    <xs:element name="City" type="xs:string"/>
  </xs:sequence></xs:complexType>
  <xs:element name="P"><xs:complexType><xs:sequence>
    <xs:element name="Home" type="Addr"/>
    <xs:element name="Work" type="Addr"/>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>`))
	f.Add([]byte(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="E" type="xs:date"/>
</xs:schema>`))
	f.Add([]byte(`<xs:schema`))
	f.Add([]byte(`<a><b/></a>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("oversized input")
		}
		s, err := Parse("fuzz", data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted schema fails validation: %v", err)
		}
		if _, err := schematree.Build(s, schematree.Options{MaxNodes: 4096}); err != nil &&
			!strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("accepted schema fails tree expansion: %v", err)
		}
		if _, err := modeltest.JSONRoundTrip(s); err != nil {
			t.Fatalf("accepted schema does not survive the native json format: %v", err)
		}
	})
}
