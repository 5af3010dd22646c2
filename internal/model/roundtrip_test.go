package model_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/avro"
	"repro/internal/core"
	"repro/internal/jsonschema"
	"repro/internal/model"
	"repro/internal/model/modeltest"
	"repro/internal/workloads"
	"repro/internal/xsdlite"
)

const rtXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="Address"><xs:sequence>
    <xs:element name="Street" type="xs:string"/>
    <xs:element name="City" type="xs:string"/>
    <xs:element name="Zip" type="xs:string"/>
  </xs:sequence></xs:complexType>
  <xs:element name="PurchaseOrder"><xs:complexType><xs:sequence>
    <xs:element name="OrderNo" type="xs:int"/>
    <xs:element name="ShipTo" type="Address"/>
    <xs:element name="BillTo" type="Address"/>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>`

const rtJSONSchema = `{
  "title": "PO",
  "type": "object",
  "properties": {
    "OrderNumber": {"type": "integer"},
    "DeliverTo": {"$ref": "#/$defs/Address"},
    "InvoiceTo": {"$ref": "#/$defs/Address"}
  },
  "$defs": {
    "Address": {"type": "object", "properties": {
      "Street": {"type": "string"}, "City": {"type": "string"}, "PostalCode": {"type": "string"}
    }}
  }
}`

// rtAvro's top-level record is named like the schema, so the root and the
// record's type element share the path "PO".
const rtAvro = `{"type": "record", "name": "PO", "fields": [
  {"name": "OrderID", "type": "int"},
  {"name": "ShipTo", "type": {"type": "record", "name": "Address", "fields": [
    {"name": "Street", "type": "string"}, {"name": "City", "type": "string"}]}},
  {"name": "BillTo", "type": "Address"}
]}`

// TestNativeJSONRoundTripKeepsSharedTypes: schemas whose shared types are
// free-standing elements (XSD named complex types, JSON Schema $defs, Avro
// named records, and the workloads built with NewElement) survive
// WriteJSON and ReadJSON with the same element count and paths, and
// matching the round-tripped pair gives the same mapping, bit for bit.
func TestNativeJSONRoundTripKeepsSharedTypes(t *testing.T) {
	xsd, err := xsdlite.Parse("PurchaseOrder", []byte(rtXSD))
	if err != nil {
		t.Fatal(err)
	}
	js, err := jsonschema.Parse("PO", []byte(rtJSONSchema))
	if err != nil {
		t.Fatal(err)
	}
	av, err := avro.Parse("PO", []byte(rtAvro))
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]*model.Schema{{xsd, js}, {av, xsd}, {js, av}}
	for _, w := range []workloads.Workload{workloads.SharedTypePO(), workloads.CIDXExcel(), workloads.RDBStar(), workloads.Figure2()} {
		pairs = append(pairs, [2]*model.Schema{w.Source, w.Target})
	}
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		var back [2]*model.Schema
		for i, s := range p {
			if back[i], err = modeltest.JSONRoundTrip(s); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
		}
		label := p[0].Name + " -> " + p[1].Name
		want, err := m.Match(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Match(back[0], back[1])
		if err != nil {
			t.Fatal(err)
		}
		wantAll, gotAll := want.Mapping.All(), got.Mapping.All()
		if len(gotAll) != len(wantAll) || len(wantAll) == 0 {
			t.Fatalf("%s: round-tripped mapping has %d elements, want %d (> 0)", label, len(gotAll), len(wantAll))
		}
		for k, e := range gotAll {
			w := wantAll[k]
			if e.Source.Path() != w.Source.Path() || e.Target.Path() != w.Target.Path() ||
				math.Float64bits(e.WSim) != math.Float64bits(w.WSim) {
				t.Errorf("%s: element %d is %v, want %v", label, k, e, w)
			}
		}
	}
}

// TestNativeJSONDisambiguatesSharedPaths: when a referenced element's
// path is not unique (the Avro root and its record, a type named like a
// column path), the written reference is an id, and a path that looks like
// an id still resolves as a path.
func TestNativeJSONDisambiguatesSharedPaths(t *testing.T) {
	s := model.New("S")
	a := s.AddChild(s.Root(), "A", model.KindTable)
	s.AddChild(a, "x", model.KindColumn)
	typ := s.NewElement("S", model.KindType)
	s.AddChild(typ, "y", model.KindColumn)
	hash := s.NewElement("#1", model.KindType) // a path shaped like an id
	s.AddChild(hash, "z", model.KindColumn)
	for _, d := range [][2]*model.Element{{s.Root(), typ}, {a, typ}, {a, hash}} {
		if err := s.DeriveFrom(d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"id": "##0"`) || !strings.Contains(buf.String(), `"type": "#1"`) {
		t.Errorf("want the ambiguous root written with an id past the '#' paths and the type \"#1\" by path:\n%s", buf.String())
	}
	back, err := modeltest.JSONRoundTrip(s)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"S": {"S"}, "S.A": {"S", "#1"}}
	for _, e := range back.Elements() {
		var got []string
		for _, d := range e.DerivedFrom() {
			if d.Kind != model.KindType {
				t.Errorf("%s derives from %s, want a type", e.Path(), d)
			}
			got = append(got, d.Name)
		}
		w := want[e.Path()]
		if e.Kind == model.KindType {
			w = nil
		}
		if strings.Join(got, ",") != strings.Join(w, ",") {
			t.Errorf("%s (%s) derives from %q, want %q", e.Path(), e.Kind, got, w)
		}
	}
}
