package avro

import (
	"strings"
	"testing"

	"repro/internal/model/modeltest"
	"repro/internal/schematree"
)

// FuzzParseAvro asserts the importer's crash-freedom contract: no input
// panics, and every accepted declaration yields a schema that validates
// and expands through schematree.Build (the Prepare pipeline's per-schema
// phase), tolerating only the deliberate node-cap rejection, and survives
// a round trip through the native JSON format with the same element count
// and paths.
func FuzzParseAvro(f *testing.F) {
	f.Add([]byte(`{"type": "record", "name": "R", "fields": [{"name": "id", "type": "long"}, {"name": "tags", "type": {"type": "array", "items": "string"}}]}`))
	f.Add([]byte(`{"type": "record", "name": "Node", "fields": [{"name": "next", "type": ["null", "Node"]}]}`))
	f.Add([]byte(`{"type": "record", "name": "E", "fields": [{"name": "color", "type": {"type": "enum", "name": "Color", "symbols": ["RED", "GREEN"]}}]}`))
	f.Add([]byte(`{"type": "record", "name": "F", "namespace": "com.example", "fields": [{"name": "hash", "type": {"type": "fixed", "name": "MD5", "size": 16}}]}`))
	f.Add([]byte(`{"type": "record", "name": "T", "fields": [{"name": "when", "type": {"type": "long", "logicalType": "timestamp-millis"}}]}`))
	f.Add([]byte(`{"type": "map", "values": "double"}`))
	f.Add([]byte(`"string"`))
	f.Add([]byte(`{"type": "record", "name": "Bad"`))
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
