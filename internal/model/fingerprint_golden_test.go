package model_test

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workloads"
)

// longSchema has names and a description longer than any hashing buffer,
// every flag set somewhere, a shared type and a referential constraint.
func longSchema(t *testing.T) *model.Schema {
	t.Helper()
	s := model.New("Long")
	s.Root().Description = strings.Repeat("a description that runs on; ", 60)
	tbl := s.AddChild(s.Root(), strings.Repeat("Table", 150), model.KindTable)
	key := s.AddChild(tbl, "ID", model.KindColumn)
	key.Type, key.IsKey = model.DTInt, true
	opt := s.AddChild(tbl, "Note", model.KindColumn)
	opt.Optional, opt.Description = true, "ü"
	hidden := s.AddChild(tbl, "Hidden", model.KindKey)
	hidden.NotInstantiated = true
	other := s.AddChild(s.Root(), "Other", model.KindTable)
	ref := s.AddChild(other, "TableID", model.KindColumn)
	typ := s.NewElement("Address", model.KindType)
	s.AddChild(typ, "City", model.KindElement).Type = model.DTString
	if err := s.DeriveFrom(other, typ); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRefInt("fk", []*model.Element{ref}, key); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFingerprintGolden pins the fingerprints of fixed workloads: the
// registry keys its entries (and its persisted state) by them, so the
// hash's byte stream must not change.
func TestFingerprintGolden(t *testing.T) {
	golden := map[string][2]string{
		"figure1":              {"14e7e864d1d5a5e75dde842b9c869135", "13355556927cf7bdb688146f2bb15543"},
		"figure2":              {"8183c65e9a14133173ee72e1358edb82", "d089031d624794272e5a73d1e628e201"},
		"sharedtype":           {"8183c65e9a14133173ee72e1358edb82", "187c9230fc0a2f7513d9cc8162ec2276"},
		"cidx-excel":           {"44cd4950e50a5bf9a1a871a3afa0cc3b", "b908b62e564bada16cfb6ea7e8a28388"},
		"rdb-star":             {"fe24720e04573788b6abfa63e9d92c8f", "fd20a3c7564071e829287e269fb6e8fd"},
		"university":           {"dad0c2ba9667582a834e4c0914e94674", "a2222ddbf7448339af4f804c79a41688"},
		"synthetic-t16-c16-d2": {"94871d10a66b1ddcbc96d72a74c93f9d", "19ec247728c11092ecc0a467defbec1c"},
		"synthetic-t6-c7-d3":   {"af0d4e7ee39e5b8ef40c235793e951f0", "dcf81358675a4561146fd9e2cd919409"},
	}
	for _, w := range []workloads.Workload{
		workloads.Figure1(), workloads.Figure2(), workloads.SharedTypePO(), workloads.CIDXExcel(),
		workloads.RDBStar(), workloads.University(),
		workloads.Synthetic(workloads.SyntheticSpec{Tables: 16, ColsPerTable: 16, Depth: 2, Rename: 0.3, Renest: 0.2, Seed: 1}),
		workloads.Synthetic(workloads.SyntheticSpec{Tables: 6, ColsPerTable: 7, Depth: 3, Seed: 4, Rename: 0.3, Renest: 0.3, FKs: 3}),
	} {
		want, ok := golden[w.Name]
		if !ok {
			t.Fatalf("no golden fingerprints for %s", w.Name)
		}
		if got := [2]string{model.Fingerprint(w.Source), model.Fingerprint(w.Target)}; got != want {
			t.Errorf("%s: fingerprints %v, want %v", w.Name, got, want)
		}
	}
	corpus := map[string]string{
		"fam0-0": "e497eb415c75ae5caa82ef28046ec0c7",
		"fam0-1": "cb2a219cfc02f9acef2e6f50647463df",
		"fam1-0": "c20b85734d7e634ee085c8cfdc1e2039",
		"fam1-1": "3a6783f8baaf0e080f661d3607c82f68",
	}
	for _, s := range workloads.FamilyCorpus(workloads.FamilyCorpusSpec{Families: 2, PerFamily: 2, Seed: 5}) {
		if got := model.Fingerprint(s); got != corpus[s.Name] {
			t.Errorf("%s: fingerprint %s, want %s", s.Name, got, corpus[s.Name])
		}
	}
	if got, want := model.Fingerprint(longSchema(t)), "c7c4d6fc88fb589480da404c6b85140a"; got != want {
		t.Errorf("long schema: fingerprint %s, want %s", got, want)
	}
}

// TestFingerprintAllocs: hashing goes through one small buffer, so a
// fingerprint costs the same handful of allocations (the hash state, its
// sum and the hex string) at any schema size.
func TestFingerprintAllocs(t *testing.T) {
	s := workloads.Synthetic(workloads.SyntheticSpec{Tables: 16, ColsPerTable: 16, Depth: 2, Rename: 0.3, Renest: 0.2, Seed: 1}).Source
	if got := testing.AllocsPerRun(20, func() { model.Fingerprint(s) }); got > 10 {
		t.Errorf("Fingerprint allocates %.1f objects/op on a 289-element schema, want <= 10", got)
	}
}
