package workloads

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/schematree"
)

func validTree(t *testing.T, s *model.Schema) *schematree.Tree {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	tr, err := schematree.Build(s, schematree.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return tr
}

// goldResolvable checks every gold path names a real schema-tree node.
func goldResolvable(t *testing.T, w Workload) {
	t.Helper()
	ts := validTree(t, w.Source)
	tt := validTree(t, w.Target)
	for _, p := range w.Gold.Pairs {
		if ts.NodeByPath(p.Source) == nil {
			t.Errorf("%s: gold source %q unresolved", w.Name, p.Source)
		}
		if tt.NodeByPath(p.Target) == nil {
			t.Errorf("%s: gold target %q unresolved", w.Name, p.Target)
		}
	}
	for _, p := range w.Gold.Forbidden {
		if ts.NodeByPath(p.Source) == nil || tt.NodeByPath(p.Target) == nil {
			t.Errorf("%s: forbidden pair %v unresolved", w.Name, p)
		}
	}
}

func TestFigure1(t *testing.T)      { goldResolvable(t, Figure1()) }
func TestFigure2(t *testing.T)      { goldResolvable(t, Figure2()) }
func TestSharedTypePO(t *testing.T) { goldResolvable(t, SharedTypePO()) }
func TestCIDXExcel(t *testing.T)    { goldResolvable(t, CIDXExcel()) }
func TestRDBStar(t *testing.T)      { goldResolvable(t, RDBStar()) }

func TestCanonicalExamples(t *testing.T) {
	exs := Canonical()
	if len(exs) != 6 {
		t.Fatalf("canonical examples = %d, want 6", len(exs))
	}
	for i, ex := range exs {
		if ex.ID != i+1 {
			t.Errorf("example %d has ID %d", i, ex.ID)
		}
		if !ex.Expected[0] {
			t.Errorf("example %d: Table 2 reports Cupid = Y on every row", ex.ID)
		}
		goldResolvable(t, ex.Workload)
	}
	// Table 2 failure pattern: DIKE fails 6; MOMIS fails 5 and 6.
	if exs[5].Expected[1] || exs[5].Expected[2] {
		t.Error("example 6 should be expected-fail for DIKE and MOMIS")
	}
	if exs[4].Expected[2] {
		t.Error("example 5 should be expected-fail for MOMIS")
	}
}

func TestCIDXStats(t *testing.T) {
	tr := validTree(t, CIDX())
	st := tr.ComputeStats()
	if st.Leaves < 30 {
		t.Errorf("CIDX leaves = %d, want >= 30", st.Leaves)
	}
	tr2 := validTree(t, Excel())
	// Shared Address/Contact types expand into both parties.
	if tr2.NodeByPath("PurchaseOrder.DeliverTo.Address.street1") == nil ||
		tr2.NodeByPath("PurchaseOrder.InvoiceTo.Address.street1") == nil {
		t.Errorf("Excel shared types not expanded:\n%s", tr2.Dump())
	}
	if tr2.ComputeStats().Copies == 0 {
		t.Error("Excel should contain context copies")
	}
}

func TestRDBStarStats(t *testing.T) {
	rdb := RDB()
	if got := rdb.ComputeStats().RefInts; got != 12 {
		t.Errorf("RDB foreign keys = %d, want 12", got)
	}
	star := Star()
	if got := star.ComputeStats().RefInts; got != 4 {
		t.Errorf("Star foreign keys = %d, want 4", got)
	}
	tr := validTree(t, rdb)
	if tr.ComputeStats().JoinViews != 12 {
		t.Errorf("RDB join views = %d, want 12", tr.ComputeStats().JoinViews)
	}
}

func TestPaperThesaurus(t *testing.T) {
	th := PaperThesaurus()
	if s := th.Sim("Invoice", "Bill"); s != 1 {
		t.Errorf("Sim(Invoice,Bill) = %v", s)
	}
	if th.Expand("uom") == nil || th.Expand("po") == nil ||
		th.Expand("qty") == nil || th.Expand("num") == nil {
		t.Error("paper thesaurus missing an abbreviation")
	}
	// Nothing else: e.g. no customer~client entry.
	if _, ok := th.Lookup("customer", "client"); ok {
		t.Error("paper thesaurus should carry only the four+two entries")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	spec := SyntheticSpec{Tables: 3, ColsPerTable: 5, Depth: 2, Seed: 42, Rename: 0.4, Renest: 0.3, FKs: 2}
	a := Synthetic(spec)
	b := Synthetic(spec)
	if a.Source.Dump() != b.Source.Dump() || a.Target.Dump() != b.Target.Dump() {
		t.Error("synthetic generation not deterministic for equal seeds")
	}
	if len(a.Gold.Pairs) != 15 {
		t.Errorf("gold pairs = %d, want 15", len(a.Gold.Pairs))
	}
	goldResolvable(t, a)
	// Different seed differs.
	spec.Seed = 43
	c := Synthetic(spec)
	if c.Target.Dump() == a.Target.Dump() {
		t.Error("different seeds produced identical schemas")
	}
}

func TestSyntheticShapes(t *testing.T) {
	w := Synthetic(SyntheticSpec{Tables: 2, ColsPerTable: 4, Depth: 3, Seed: 7})
	tr := validTree(t, w.Source)
	if tr.ComputeStats().MaxDepth < 3 {
		t.Errorf("depth-3 spec produced max depth %d", tr.ComputeStats().MaxDepth)
	}
	// Defaults fill in.
	d := Synthetic(SyntheticSpec{Seed: 1})
	if d.Source.Len() == 0 {
		t.Error("default spec produced empty schema")
	}
	// FKs materialize as refints.
	f := Synthetic(SyntheticSpec{Tables: 3, ColsPerTable: 4, Seed: 9, FKs: 2})
	if f.Source.ComputeStats().RefInts == 0 {
		t.Error("FK spec produced no refints")
	}
}

func TestTable3RowsResolvable(t *testing.T) {
	w := CIDXExcel()
	ts := validTree(t, w.Source)
	tt := validTree(t, w.Target)
	for _, r := range Table3Rows() {
		if ts.NodeByPath(r.Source) == nil {
			t.Errorf("table3 source %q unresolved", r.Source)
		}
		if tt.NodeByPath(r.Target) == nil {
			t.Errorf("table3 target %q unresolved", r.Target)
		}
	}
}

func TestUniversity(t *testing.T) { goldResolvable(t, University()) }

// TestFamilyCorpusScalesDeterministically covers the planner benchmark's
// 20k-schema corpus: generation at that scale stays deterministic
// (spot-checked by Dump over a spread of schemas — hashing all 20k twice
// would dominate the test run), names stay unique, and a different seed
// produces a different corpus.
func TestFamilyCorpusScalesDeterministically(t *testing.T) {
	spec := FamilyCorpusSpec{PerFamily: 2000, Seed: 5}
	a := FamilyCorpus(spec)
	b := FamilyCorpus(spec)
	if len(a) != 2000*NumFamilies() || len(b) != len(a) {
		t.Fatalf("corpus sizes %d/%d, want %d", len(a), len(b), 2000*NumFamilies())
	}
	seen := map[string]bool{}
	for _, s := range a {
		if seen[s.Name] {
			t.Fatalf("duplicate schema name %q", s.Name)
		}
		seen[s.Name] = true
	}
	for _, i := range []int{0, 1, 999, 7321, 12345, len(a) - 1} {
		if a[i].Name != b[i].Name || a[i].Dump() != b[i].Dump() {
			t.Errorf("schema %d (%s) differs between equal-spec generations", i, a[i].Name)
		}
	}
	c := FamilyCorpus(FamilyCorpusSpec{PerFamily: 2000, Seed: 6})
	if c[12345].Dump() == a[12345].Dump() {
		t.Error("different corpus seeds produced an identical schema")
	}
}

// corpusDigest hashes a corpus's names and dumps, in order.
func corpusDigest(corpus []*model.Schema) string {
	h := sha256.New()
	for _, s := range corpus {
		h.Write([]byte(s.Name))
		h.Write([]byte(s.Dump()))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFamilyCorpusBridge pins the Bridge knob: zero generates the corpus
// every earlier FamilyCorpus caller got, byte for byte (the digest was
// recorded before the knob existed), and Bridge: 4 changes only members
// 0, 4, 8, ... of each family, which then use the next family's
// vocabulary. A bridged member draws each name from the union of the two
// vocabularies, so an occasional one draws only its own names and comes
// out unchanged.
func TestFamilyCorpusBridge(t *testing.T) {
	const unbridged = "f3d559051ef3e07a70a4478ebd03da81931ed59ba78b7b93e80a05e0767f5778"
	plain := FamilyCorpus(FamilyCorpusSpec{PerFamily: 20, Seed: 17})
	if got := corpusDigest(plain); got != unbridged {
		t.Fatalf("Bridge: 0 corpus digest %s, want %s", got, unbridged)
	}
	bridged := FamilyCorpus(FamilyCorpusSpec{PerFamily: 20, Seed: 17, Bridge: 4})
	if len(bridged) != len(plain) {
		t.Fatalf("bridged corpus has %d schemas, want %d", len(bridged), len(plain))
	}
	changed := 0
	for i, s := range bridged {
		dump := s.Dump()
		if dump == plain[i].Dump() {
			continue
		}
		if i%20%4 != 0 {
			t.Errorf("%s: member %d changed, but only every 4th member is bridged", s.Name, i%20)
			continue
		}
		changed++
		borrows := false
		for _, v := range familyVocabs[(i/20+1)%NumFamilies()] {
			borrows = borrows || strings.Contains(dump, v[0]) || strings.Contains(dump, v[1])
		}
		if !borrows {
			t.Errorf("%s: bridged member uses none of the next family's vocabulary", s.Name)
		}
	}
	if bridgedMembers := NumFamilies() * 5; changed < bridgedMembers*4/5 {
		t.Errorf("%d of %d bridged members changed, want at least 80%%", changed, bridgedMembers)
	}
}

// TestPlannerProbesDeterministicAndShaped covers the planner-stress probe
// generators: deterministic for equal seeds, differing across seeds and
// families, and shaped as documented — RareTokenProbe carries no numeric
// suffixes or generator boilerplate names, StopHeavyProbe is built from
// the corpus-wide stems plus never-indexed fillers.
func TestPlannerProbesDeterministicAndShaped(t *testing.T) {
	r1, r2 := RareTokenProbe(2, 9), RareTokenProbe(2, 9)
	if r1.Dump() != r2.Dump() {
		t.Error("RareTokenProbe not deterministic")
	}
	if RareTokenProbe(3, 9).Dump() == r1.Dump() || RareTokenProbe(2, 10).Dump() == r1.Dump() {
		t.Error("RareTokenProbe ignores family or seed")
	}
	for _, e := range r1.Elements() {
		for _, c := range e.Name {
			if c >= '0' && c <= '9' {
				t.Errorf("RareTokenProbe element %q carries a numeric suffix", e.Name)
			}
		}
		if e.Name == "Target" || e.Name == "Table0" {
			t.Errorf("RareTokenProbe element %q collides with generator boilerplate", e.Name)
		}
	}

	s1, s2 := StopHeavyProbe(4), StopHeavyProbe(4)
	if s1.Dump() != s2.Dump() {
		t.Error("StopHeavyProbe not deterministic")
	}
	names := map[string]bool{}
	for _, e := range s1.Elements() {
		if names[e.Name] {
			t.Errorf("StopHeavyProbe duplicates element name %q", e.Name)
		}
		names[e.Name] = true
	}
	for _, want := range stopStems {
		if !names[want] {
			t.Errorf("StopHeavyProbe missing stop-stem element %q", want)
		}
	}
}
