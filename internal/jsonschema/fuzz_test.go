package jsonschema

import (
	"strings"
	"testing"

	"repro/internal/model/modeltest"
	"repro/internal/schematree"
)

// FuzzParseJSONSchema asserts the importer's crash-freedom contract: no
// input panics, and every accepted document yields a schema that validates
// and expands through schematree.Build (the Prepare pipeline's per-schema
// phase), tolerating only the deliberate node-cap rejection, and survives
// a round trip through the native JSON format with the same element count
// and paths.
func FuzzParseJSONSchema(f *testing.F) {
	f.Add([]byte(`{"type": "object", "properties": {"id": {"type": "integer"}, "name": {"type": "string"}}, "required": ["id"]}`))
	f.Add([]byte(`{"$defs": {"addr": {"type": "object", "properties": {"city": {"type": "string"}}}}, "type": "object", "properties": {"home": {"$ref": "#/$defs/addr"}, "work": {"$ref": "#/$defs/addr"}}}`))
	f.Add([]byte(`{"$defs": {"node": {"type": "object", "properties": {"next": {"$ref": "#/$defs/node"}}}}, "$ref": "#/$defs/node"}`))
	f.Add([]byte(`{"type": "array", "items": {"type": "string", "format": "date-time"}}`))
	f.Add([]byte(`{"enum": ["a", "b"], "title": "Pick"}`))
	f.Add([]byte(`{"type": ["string", "null"]}`))
	f.Add([]byte(`{"type": "object"`))
	f.Add([]byte(`[]`))
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
