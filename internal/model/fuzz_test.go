package model_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/model/modeltest"
	"repro/internal/schematree"
)

// FuzzReadJSON asserts the native JSON importer's crash-freedom contract:
// no input panics, and every accepted document yields a schema that
// validates and expands through schematree.Build (the Prepare pipeline's
// per-schema phase), tolerating only the deliberate node-cap rejection,
// and survives a round trip through the format itself with the same
// element count and paths.
func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"name":"S","root":{"name":"R","children":[{"name":"A","type":"int","key":true},{"name":"B","type":"string","optional":true}]}}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"id":"col","name":"A","type":"int"},{"id":"tbl","name":"T","children":[{"name":"K","type":"int","key":true}]}]},"refints":[{"name":"fk","sources":["col"],"target":"tbl"}]}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"name":"Addr","kind":"type","children":[{"name":"City"}]},{"name":"Ship"}]},"derivations":[{"element":"R.Ship","type":"R.Addr"}]}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"name":"Ship"}]},"types":[{"name":"Addr","kind":"type","children":[{"name":"City"}]}],"derivations":[{"element":"R.Ship","type":"Addr"}]}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"name":"A"},{"name":"A","children":[{"name":"x"}]}]},"types":[{"name":"R"}],"derivations":[{"element":"R","type":"R.A.x"}]}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"name":"F","kind":"refint","children":[{"name":"c"}]}]}}`))
	f.Add([]byte(`{"root":{"name":"R","children":[null]}}`))
	f.Add([]byte(`{"root":{"name":"R","description":"d","children":[{"name":"V","kind":"view","notInstantiated":true}]}}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"id":"x","name":"A"},{"id":"x","name":"B"}]}}`))
	f.Add([]byte(`{"root":{"name":"R"},"bogus":1}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			t.Skip("oversized input")
		}
		s, err := model.ReadJSON(bytes.NewReader(data))
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
