package model

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// buildPO constructs the PO schema of the paper's Figure 1.
func buildPO(t *testing.T) *Schema {
	t.Helper()
	s := New("PO")
	lines := s.AddChild(s.Root(), "Lines", KindElement)
	item := s.AddChild(lines, "Item", KindElement)
	for _, name := range []string{"Line", "Qty", "Uom"} {
		c := s.AddChild(item, name, KindAttribute)
		c.Type = DTString
	}
	return s
}

func TestAddChildAndPaths(t *testing.T) {
	s := buildPO(t)
	if s.Len() != 6 {
		t.Fatalf("Len() = %d, want 6", s.Len())
	}
	leaves := Leaves(s.Root())
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d, want 3", len(leaves))
	}
	if got := leaves[0].Path(); got != "PO.Lines.Item.Line" {
		t.Errorf("Path() = %q, want PO.Lines.Item.Line", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDepthAndCommonAncestor(t *testing.T) {
	s := buildPO(t)
	leaves := Leaves(s.Root())
	if d := Depth(leaves[0]); d != 3 {
		t.Errorf("Depth(leaf) = %d, want 3", d)
	}
	if d := Depth(s.Root()); d != 0 {
		t.Errorf("Depth(root) = %d, want 0", d)
	}
	anc := CommonAncestor(leaves[0], leaves[1])
	if anc == nil || anc.Name != "Item" {
		t.Errorf("CommonAncestor(Line,Qty) = %v, want Item", anc)
	}
	if got := CommonAncestor(leaves[0], leaves[0]); got != leaves[0] {
		t.Errorf("CommonAncestor(x,x) = %v, want x", got)
	}
	other := New("other")
	if got := CommonAncestor(leaves[0], other.Root()); got != nil {
		t.Errorf("CommonAncestor across schemas = %v, want nil", got)
	}
}

func TestContainRejectsSecondParent(t *testing.T) {
	s := New("S")
	a := s.AddChild(s.Root(), "A", KindElement)
	b := s.AddChild(s.Root(), "B", KindElement)
	c := s.AddChild(a, "C", KindElement)
	if err := s.Contain(b, c); err == nil {
		t.Fatal("Contain accepted a second containment parent")
	}
	if err := s.Contain(a, s.Root()); err == nil {
		t.Fatal("Contain accepted containing the root")
	}
}

func TestDeriveFromSelfRejected(t *testing.T) {
	s := New("S")
	a := s.AddChild(s.Root(), "A", KindElement)
	if err := s.DeriveFrom(a, a); err == nil {
		t.Fatal("DeriveFrom accepted a self-derivation")
	}
}

func TestCrossSchemaRelationshipsRejected(t *testing.T) {
	s1 := New("S1")
	s2 := New("S2")
	a := s1.AddChild(s1.Root(), "A", KindElement)
	b := s2.AddChild(s2.Root(), "B", KindElement)
	if err := s1.Contain(a, b); err == nil {
		t.Error("Contain accepted cross-schema link")
	}
	if err := s1.DeriveFrom(a, b); err == nil {
		t.Error("DeriveFrom accepted cross-schema link")
	}
	if err := s1.Aggregate(a, b); err == nil {
		t.Error("Aggregate accepted cross-schema link")
	}
	if err := s1.Refer(a, b); err == nil {
		t.Error("Refer accepted cross-schema link")
	}
}

func TestIsLeaf(t *testing.T) {
	s := New("S")
	a := s.AddChild(s.Root(), "A", KindElement)
	leaf := s.AddChild(a, "L", KindAttribute)
	typ := s.NewElement("T", KindType)
	s.AddChild(typ, "Member", KindAttribute)
	derived := s.AddChild(a, "D", KindElement)
	if err := s.DeriveFrom(derived, typ); err != nil {
		t.Fatal(err)
	}
	if !leaf.IsLeaf() {
		t.Error("plain childless element should be a leaf")
	}
	if a.IsLeaf() {
		t.Error("element with children should not be a leaf")
	}
	if derived.IsLeaf() {
		t.Error("element deriving from a type should not be a leaf (type substitution adds members)")
	}
}

func TestAddRefInt(t *testing.T) {
	s := New("DB")
	orders := s.AddChild(s.Root(), "Orders", KindTable)
	custID := s.AddChild(orders, "CustomerID", KindColumn)
	custID.Type = DTInt
	customers := s.AddChild(s.Root(), "Customers", KindTable)
	pk := s.AddChild(customers, "CustomerID", KindColumn)
	pk.Type = DTInt
	pk.IsKey = true

	ri, err := s.AddRefInt("Orders-Customers-fk", []*Element{custID}, customers)
	if err != nil {
		t.Fatalf("AddRefInt: %v", err)
	}
	if ri.Parent() != s.Root() {
		t.Errorf("refint parent = %v, want root (common ancestor)", ri.Parent())
	}
	if !ri.NotInstantiated {
		t.Error("refint should be tagged not-instantiated")
	}
	if len(ri.Aggregates()) != 1 || ri.Aggregates()[0] != custID {
		t.Errorf("refint aggregates = %v", ri.Aggregates())
	}
	if len(ri.References()) != 1 || ri.References()[0] != customers {
		t.Errorf("refint references = %v", ri.References())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddRefIntErrors(t *testing.T) {
	s := New("DB")
	tbl := s.AddChild(s.Root(), "T", KindTable)
	if _, err := s.AddRefInt("fk", nil, tbl); err == nil {
		t.Error("AddRefInt accepted empty sources")
	}
}

func TestValidateDetectsBrokenLinks(t *testing.T) {
	s := New("S")
	a := s.AddChild(s.Root(), "A", KindElement)
	b := s.AddChild(a, "B", KindElement)
	// Corrupt: graft b under root as well, creating a duplicated containment.
	s.Root().children = append(s.Root().children, b)
	if err := s.Validate(); err == nil {
		t.Fatal("Validate missed an element contained twice")
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	s := New("S")
	a := s.AddChild(s.Root(), "A", KindElement)
	b := s.AddChild(a, "B", KindElement)
	// Corrupt: make a a child of b, forming a cycle.
	b.children = append(b.children, a)
	if err := s.Validate(); err == nil {
		t.Fatal("Validate missed a containment cycle")
	}
}

func TestPostOrderVisitsChildrenFirst(t *testing.T) {
	s := buildPO(t)
	var order []string
	PostOrder(s.Root(), func(e *Element) { order = append(order, e.Name) })
	want := []string{"Line", "Qty", "Uom", "Item", "Lines", "PO"}
	if len(order) != len(want) {
		t.Fatalf("post-order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("post-order = %v, want %v", order, want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	s := New("DB")
	t1 := s.AddChild(s.Root(), "T1", KindTable)
	c1 := s.AddChild(t1, "C1", KindColumn)
	c1.Optional = true
	t2 := s.AddChild(s.Root(), "T2", KindTable)
	k := s.AddChild(t2, "K", KindColumn)
	k.IsKey = true
	typ := s.NewElement("Addr", KindType)
	s.AddChild(typ, "Street", KindColumn)
	d1 := s.AddChild(t1, "Ship", KindElement)
	d2 := s.AddChild(t2, "Bill", KindElement)
	if err := s.DeriveFrom(d1, typ); err != nil {
		t.Fatal(err)
	}
	if err := s.DeriveFrom(d2, typ); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRefInt("fk", []*Element{c1}, t2); err != nil {
		t.Fatal(err)
	}
	st := s.ComputeStats()
	if st.RefInts != 1 {
		t.Errorf("RefInts = %d, want 1", st.RefInts)
	}
	if st.SharedTypes != 1 {
		t.Errorf("SharedTypes = %d, want 1", st.SharedTypes)
	}
	if st.Optional != 1 {
		t.Errorf("Optional = %d, want 1", st.Optional)
	}
	if st.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", st.MaxDepth)
	}
}

func TestDumpContainsAnnotations(t *testing.T) {
	s := New("S")
	a := s.AddChild(s.Root(), "A", KindElement)
	a.Optional = true
	leaf := s.AddChild(a, "L", KindAttribute)
	leaf.Type = DTInt
	d := s.Dump()
	for _, want := range []string{"(optional)", ": int", "  A", "    L"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := New("DB")
	orders := s.AddChild(s.Root(), "Orders", KindTable)
	cid := s.AddChild(orders, "CustomerID", KindColumn)
	cid.Type = DTInt
	opt := s.AddChild(orders, "Notes", KindColumn)
	opt.Type = DTString
	opt.Optional = true
	customers := s.AddChild(s.Root(), "Customers", KindTable)
	pk := s.AddChild(customers, "CustomerID", KindColumn)
	pk.Type = DTInt
	pk.IsKey = true
	addr := s.NewElement("Address", KindType)
	s.AddChild(addr, "Street", KindColumn).Type = DTString
	ship := s.AddChild(orders, "ShipTo", KindElement)
	if err := s.DeriveFrom(ship, addr); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRefInt("Orders-Customers-fk", []*Element{cid}, customers); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	// Shared type Address is not reachable from the root; derivations must
	// still round-trip through the path map only if the type is attached.
	// Attach it under the root for serializability, rebuild and compare.
	s2 := New("DB")
	orders2 := s2.AddChild(s2.Root(), "Orders", KindTable)
	cid2 := s2.AddChild(orders2, "CustomerID", KindColumn)
	cid2.Type = DTInt
	customers2 := s2.AddChild(s2.Root(), "Customers", KindTable)
	pk2 := s2.AddChild(customers2, "CustomerID", KindColumn)
	pk2.Type = DTInt
	pk2.IsKey = true
	addr2 := s2.AddChild(s2.Root(), "Address", KindType)
	s2.AddChild(addr2, "Street", KindColumn).Type = DTString
	ship2 := s2.AddChild(orders2, "ShipTo", KindElement)
	if err := s2.DeriveFrom(ship2, addr2); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.AddRefInt("Orders-Customers-fk", []*Element{cid2}, customers2); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := s2.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.Name != "DB" {
		t.Errorf("Name = %q", got.Name)
	}
	if got.Len() != s2.Len() {
		t.Errorf("Len = %d, want %d\n%s", got.Len(), s2.Len(), got.Dump())
	}
	st := got.ComputeStats()
	if st.RefInts != 1 {
		t.Errorf("round-tripped RefInts = %d, want 1", st.RefInts)
	}
	// Derivation survived.
	var shipGot *Element
	PreOrder(got.Root(), func(e *Element) {
		if e.Name == "ShipTo" {
			shipGot = e
		}
	})
	if shipGot == nil || len(shipGot.DerivedFrom()) != 1 || shipGot.DerivedFrom()[0].Name != "Address" {
		t.Errorf("derivation lost in round trip: %v", shipGot)
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := map[string]string{
		"empty object":     `{}`,
		"bad json":         `{`,
		"unknown field":    `{"root":{"name":"R"},"bogus":1}`,
		"unresolved deriv": `{"root":{"name":"R","children":[{"name":"A"}]},"derivations":[{"element":"R.A","type":"R.Missing"}]}`,
		"unresolved ref":   `{"root":{"name":"R","children":[{"name":"A"}]},"refints":[{"name":"fk","sources":["R.A"],"target":"R.Nope"}]}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSON accepted %q", name, in)
		}
	}
}

func TestSortChildrenByName(t *testing.T) {
	s := New("S")
	for _, n := range []string{"c", "a", "b"} {
		s.AddChild(s.Root(), n, KindElement)
	}
	s.SortChildrenByName()
	got := make([]string, 0, 3)
	for _, c := range s.Root().Children() {
		got = append(got, c.Name)
	}
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("sorted children = %v", got)
	}
}

func TestKindString(t *testing.T) {
	if KindTable.String() != "table" {
		t.Errorf("KindTable = %q", KindTable.String())
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should render non-empty")
	}
	if ParseKind("TABLE") != KindTable {
		t.Error("ParseKind should be case-insensitive")
	}
	if ParseKind("nonsense") != KindOther {
		t.Error("ParseKind unknown should map to KindOther")
	}
}

// Property: IDs are dense and ElementByID is the inverse of ID().
func TestElementIDDense(t *testing.T) {
	f := func(names []string) bool {
		s := New("S")
		for _, n := range names {
			s.AddChild(s.Root(), n, KindElement)
		}
		for i, e := range s.Elements() {
			if e.ID() != i || s.ElementByID(i) != e {
				return false
			}
		}
		return s.ElementByID(-1) == nil && s.ElementByID(s.Len()) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Depth equals the number of dots in Path for single-token names.
func TestDepthMatchesPath(t *testing.T) {
	s := New("Root")
	cur := s.Root()
	for i := 0; i < 8; i++ {
		cur = s.AddChild(cur, "n", KindElement)
		if got, want := Depth(cur), strings.Count(cur.Path(), "."); got != want {
			t.Fatalf("Depth=%d, dots=%d for %q", got, want, cur.Path())
		}
	}
}

// TestValidateRejectsInvalidUTF8: a schema name, element name or
// description that is not valid UTF-8 cannot survive the native JSON
// format (its strings are Unicode), so Validate refuses it and quotes
// the offending bytes.
func TestValidateRejectsInvalidUTF8(t *testing.T) {
	for _, c := range []struct {
		what  string
		build func(s *Schema)
		want  string
	}{
		{"schema name", func(s *Schema) { s.Name = "S\xb6" }, `"S\xb6"`},
		{"element name", func(s *Schema) { s.AddChild(s.Root(), "\xb6", KindColumn) }, `"S.\xb6"`},
		{"description", func(s *Schema) { s.AddChild(s.Root(), "A", KindColumn).Description = "d\x80" }, `"d\x80"`},
	} {
		s := New("S")
		c.build(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted bytes that are not valid UTF-8", c.what)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "UTF-8") {
			t.Errorf("%s: error %q does not quote %s", c.what, err, c.want)
		}
	}
	s := New("Straße")
	s.AddChild(s.Root(), "Größe", KindColumn).Description = "Maß"
	if err := s.Validate(); err != nil {
		t.Errorf("valid UTF-8 refused: %v", err)
	}
}
