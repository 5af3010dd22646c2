package sqlddl

import (
	"strings"
	"testing"

	"repro/internal/model/modeltest"
	"repro/internal/schematree"
)

// FuzzParseSQL asserts the importer's crash-freedom contract: no input
// panics, and every accepted DDL script yields a schema that validates and
// expands through schematree.Build (the Prepare pipeline's per-schema
// phase), tolerating only the deliberate node-cap rejection, and survives
// a round trip through the native json format with the same elements and
// links when it is valid UTF-8.
func FuzzParseSQL(f *testing.F) {
	f.Add("CREATE TABLE T (X INT);")
	f.Add("CREATE TABLE Orders (ID INT PRIMARY KEY, Total DECIMAL(10,2), Placed TIMESTAMP NOT NULL);")
	f.Add("CREATE TABLE A (ID INT PRIMARY KEY); CREATE TABLE B (AID INT REFERENCES A (ID));")
	f.Add("CREATE TABLE C (N VARCHAR(40) UNIQUE, CONSTRAINT pk PRIMARY KEY (N));")
	f.Add("-- comment\nCREATE TABLE D (V DOUBLE DEFAULT 0.5);")
	f.Add("CREATE TABLE")
	f.Add("DROP EVERYTHING;")
	f.Add("CREATE TABLE t (\xb6 INT);") // a name that is not valid UTF-8
	f.Fuzz(func(t *testing.T, data string) {
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
		// Validate refuses names that are not valid UTF-8, so every
		// schema that passes it must come back from the native format
		// unchanged.
		if _, err := modeltest.JSONRoundTrip(s); err != nil {
			t.Fatalf("accepted schema does not survive the native json format: %v", err)
		}
	})
}
