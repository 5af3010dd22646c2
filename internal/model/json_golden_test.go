package model_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/model"
	"repro/internal/workloads"
)

// TestNativeJSONBytesGolden pins the native JSON bytes of schemas that
// have no links beyond their refints: a FamilyCorpus schema, both sides
// of a pair-large Synthetic pair, and a Synthetic schema with foreign
// keys. The bench encodes its workload documents with MarshalJSON, so a
// format extension must leave these bytes exactly as they were.
func TestNativeJSONBytesGolden(t *testing.T) {
	fam := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{Families: workloads.NumFamilies(), PerFamily: 2, Seed: 12})
	pair := workloads.Synthetic(workloads.SyntheticSpec{Tables: 16, ColsPerTable: 16, Depth: 2, Rename: 0.3, Renest: 0.2, Seed: 7})
	fks := workloads.Synthetic(workloads.SyntheticSpec{Tables: 6, ColsPerTable: 7, Depth: 3, Rename: 0.3, Renest: 0.2, FKs: 3, Seed: 11})
	for _, c := range []struct {
		name   string
		s      *model.Schema
		size   int
		sha256 string
	}{
		{"family", fam[5], 1354, "de2775f17eb602eb4cade70082184e0d47a6b22317c1b002cb0df8ba98547bc0"},
		{"pair-large source", pair.Source, 36162, "7e4236987d07b473fac50dc501f61147111752434bd4ece328d0de9b09695037"},
		{"pair-large target", pair.Target, 35686, "01fbc8b3db4edc5ab435148bb50918224db55a26c7563dca1b027de2d6c736db"},
		{"synthetic with foreign keys", fks.Target, 8254, "139d47acee9dbcd5f8071cd588156858fc123d35d7a99fca552e7799c39fcdb8"},
	} {
		b, err := c.s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); len(b) != c.size || got != c.sha256 {
			t.Errorf("%s: native json is %d bytes with sha256 %s, want %d bytes with %s", c.name, len(b), got, c.size, c.sha256)
		}
	}
}
