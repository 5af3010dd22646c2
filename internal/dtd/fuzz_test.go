package dtd

import (
	"strings"
	"testing"

	"repro/internal/model/modeltest"
	"repro/internal/schematree"
)

// FuzzParseDTD asserts the importer's crash-freedom contract: no input
// panics, and every accepted DTD yields a schema that validates and
// expands through schematree.Build (the Prepare pipeline's per-schema
// phase), tolerating only the deliberate node-cap rejection, and survives
// a round trip through the native json format with the same elements and
// links when it is valid UTF-8.
func FuzzParseDTD(f *testing.F) {
	f.Add(poDTD)
	f.Add(`<!ELEMENT a (b, c?)> <!ELEMENT b (#PCDATA)> <!ELEMENT c EMPTY>`)
	f.Add(`<!ELEMENT a (b | c)*> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ATTLIST b id ID #REQUIRED>`)
	f.Add(`<!ELEMENT a EMPTY> <!ATTLIST a r IDREF #IMPLIED s (x | y) "x" t CDATA #FIXED 'v'>`)
	f.Add(`<!-- c --><!ENTITY e "x"><!ELEMENT a ANY>`)
	f.Add(`<!ELEMENT a (a)>`)
	f.Add("<!ELEMENT \x80 EMPTY>") // a name that is not valid UTF-8
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 64<<10 {
			t.Skip("oversized input")
		}
		s, err := Parse("fuzz", doc)
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
		// Validate refuses names that are not valid UTF-8, so every
		// schema that passes it must come back from the native format
		// unchanged.
		if _, err := modeltest.JSONRoundTrip(s); err != nil {
			t.Fatalf("accepted schema does not survive the native json format: %v", err)
		}
	})
}
