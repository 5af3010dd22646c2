package model_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/model/modeltest"
	"repro/internal/schematree"
)

// FuzzReadJSON asserts the native JSON importer's crash-freedom contract:
// no input panics, and every accepted document yields a schema that
// validates and expands through schematree.Build with views and join
// views on (the Prepare pipeline's per-schema phase), tolerating only the
// deliberate node-cap rejection, and survives a round trip through the format itself with the same
// element count and paths.
func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"name":"S","root":{"name":"R","children":[{"name":"A","type":"int","key":true},{"name":"B","type":"string","optional":true}]}}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"id":"col","name":"A","type":"int"},{"id":"tbl","name":"T","children":[{"name":"K","type":"int","key":true}]}]},"refints":[{"name":"fk","sources":["col"],"target":"tbl"}]}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"name":"Addr","kind":"type","children":[{"name":"City"}]},{"name":"Ship"}]},"derivations":[{"element":"R.Ship","type":"R.Addr"}]}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"name":"Ship"}]},"types":[{"name":"Addr","kind":"type","children":[{"name":"City"}]}],"derivations":[{"element":"R.Ship","type":"Addr"}]}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"name":"A"},{"name":"A","children":[{"name":"x"}]}]},"types":[{"name":"R"}],"derivations":[{"element":"R","type":"R.A.x"}]}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"name":"F","kind":"refint","children":[{"name":"c"}]}]}}`))
	f.Add([]byte(`{"root":{"name":"R","children":[{"name":"T","children":[{"name":"K","key":true}]},{"name":"V","kind":"view","notInstantiated":true}]},"links":[{"owner":"R.T","aggregates":["R.T.K"]},{"owner":"R.V","aggregates":["R.T.K"],"references":["R.T"]}]}`))
	f.Add(rootViewsJSON(40))
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
		opt := schematree.DefaultOptions()
		opt.MaxNodes = 4096
		if _, err := schematree.Build(s, opt); err != nil &&
			!strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("accepted schema fails tree expansion: %v", err)
		}
		if _, err := modeltest.JSONRoundTrip(s); err != nil {
			t.Fatalf("accepted schema does not survive the native json format: %v", err)
		}
	})
}

// rootViewsJSON is a document whose root holds k views that each aggregate
// the root: expanded, every view copies the tree built so far, so it asks
// for about 2^(k+1) nodes.
func rootViewsJSON(k int) []byte {
	var kids, links []string
	for i := 0; i < k; i++ {
		v := fmt.Sprintf("V%d", i)
		kids = append(kids, `{"name":"`+v+`","kind":"view","notInstantiated":true}`)
		links = append(links, `{"owner":"R.`+v+`","aggregates":["R"]}`)
	}
	return []byte(`{"root":{"name":"R","children":[{"name":"c"},` + strings.Join(kids, ",") +
		`]},"links":[` + strings.Join(links, ",") + `]}`)
}

// TestReadJSONRootViewsHitNodeCap: links let a small document ask for an
// exponential tree; Build must refuse it at the node cap, not allocate it.
func TestReadJSONRootViewsHitNodeCap(t *testing.T) {
	s, err := model.ReadJSON(bytes.NewReader(rootViewsJSON(40)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Root().Children()); got != 41 {
		t.Fatalf("root has %d children, want 41", got)
	}
	opt := schematree.DefaultOptions()
	opt.MaxNodes = 4096
	if _, err := schematree.Build(s, opt); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Build: err = %v, want the node-cap error", err)
	}
}
