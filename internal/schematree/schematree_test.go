package schematree

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workloads"
)

// buildShared builds the paper's §8.2 example: PurchaseOrder where Address
// is a shared type referenced by both DeliverTo and InvoiceTo.
func buildShared(t *testing.T) (*model.Schema, *model.Element) {
	t.Helper()
	s := model.New("PurchaseOrder")
	addr := s.AddChild(s.Root(), "Address", model.KindType)
	s.AddChild(addr, "Street", model.KindColumn).Type = model.DTString
	s.AddChild(addr, "City", model.KindColumn).Type = model.DTString
	deliver := s.AddChild(s.Root(), "DeliverTo", model.KindElement)
	invoice := s.AddChild(s.Root(), "InvoiceTo", model.KindElement)
	if err := s.DeriveFrom(deliver, addr); err != nil {
		t.Fatal(err)
	}
	if err := s.DeriveFrom(invoice, addr); err != nil {
		t.Fatal(err)
	}
	return s, addr
}

func TestBuildSimpleTree(t *testing.T) {
	s := model.New("PO")
	lines := s.AddChild(s.Root(), "Lines", model.KindElement)
	item := s.AddChild(lines, "Item", model.KindElement)
	s.AddChild(item, "Line", model.KindAttribute)
	s.AddChild(item, "Qty", model.KindAttribute)
	tr, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5\n%s", tr.Len(), tr.Dump())
	}
	// Post-order: Line, Qty, Item, Lines, PO.
	names := make([]string, tr.Len())
	for i, n := range tr.Nodes {
		if n.Idx != i {
			t.Fatalf("Nodes[%d].Idx = %d", i, n.Idx)
		}
		names[i] = n.Name()
	}
	want := []string{"Line", "Qty", "Item", "Lines", "PO"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("post-order = %v, want %v", names, want)
		}
	}
	if tr.NumLeaves() != 2 {
		t.Errorf("NumLeaves = %d, want 2", tr.NumLeaves())
	}
	// Subtree leaf ranges.
	item2 := tr.NodeByPath("PO.Lines.Item")
	if item2 == nil {
		t.Fatal("NodeByPath failed")
	}
	if got := tr.Leaves(item2); len(got) != 2 {
		t.Errorf("Leaves(Item) = %v", got)
	}
	if got := tr.LeafCount(tr.Root); got != 2 {
		t.Errorf("LeafCount(root) = %d", got)
	}
}

func TestTypeSubstitutionCreatesContexts(t *testing.T) {
	s, addr := buildShared(t)
	tr, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Address's members appear under Address itself, DeliverTo and
	// InvoiceTo: 3 contexts for Street and for City.
	var street *model.Element
	model.PreOrder(s.Root(), func(e *model.Element) {
		if e.Name == "Street" {
			street = e
		}
	})
	nodes := tr.NodesOfElement(street)
	if len(nodes) != 3 {
		t.Fatalf("Street contexts = %d, want 3\n%s", len(nodes), tr.Dump())
	}
	paths := map[string]bool{}
	for _, n := range nodes {
		paths[n.Path()] = true
	}
	for _, want := range []string{
		"PurchaseOrder.Address.Street",
		"PurchaseOrder.DeliverTo.Street",
		"PurchaseOrder.InvoiceTo.Street",
	} {
		if !paths[want] {
			t.Errorf("missing context %q (have %v)", want, paths)
		}
	}
	// Later contexts are marked as copies of the first.
	copies := 0
	for _, n := range nodes {
		if n.CopyOf != nil {
			copies++
		}
	}
	if copies != 2 {
		t.Errorf("copies = %d, want 2", copies)
	}
	_ = addr
}

func TestCycleDetection(t *testing.T) {
	s := model.New("S")
	a := s.AddChild(s.Root(), "A", model.KindType)
	b := s.AddChild(a, "B", model.KindElement)
	if err := s.DeriveFrom(b, a); err != nil { // B IsDerivedFrom A, A contains B
		t.Fatal(err)
	}
	_, err := Build(s, DefaultOptions())
	if err == nil {
		t.Fatal("Build accepted a recursive type")
	}
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("error %v is not ErrCycle", err)
	}
}

func TestNotInstantiatedSkipped(t *testing.T) {
	s := model.New("DB")
	tbl := s.AddChild(s.Root(), "T", model.KindTable)
	s.AddChild(tbl, "C", model.KindColumn)
	key := s.AddChild(tbl, "PK", model.KindKey)
	key.NotInstantiated = true
	tr, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Nodes {
		if n.Elem == key {
			t.Fatal("not-instantiated key materialized")
		}
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
}

// buildFK builds the paper's Figure 6: Purchase Order and Customer tables
// with a foreign key from PurchaseOrder.CustomerID to Customer.
func buildFK(t *testing.T) *model.Schema {
	t.Helper()
	s := model.New("DB")
	po := s.AddChild(s.Root(), "PurchaseOrder", model.KindTable)
	s.AddChild(po, "OrderID", model.KindColumn).Type = model.DTInt
	s.AddChild(po, "ProductName", model.KindColumn).Type = model.DTString
	cid := s.AddChild(po, "CustomerID", model.KindColumn)
	cid.Type = model.DTInt
	cust := s.AddChild(s.Root(), "Customer", model.KindTable)
	pk := s.AddChild(cust, "CustomerID", model.KindColumn)
	pk.Type = model.DTInt
	pk.IsKey = true
	s.AddChild(cust, "Name", model.KindColumn).Type = model.DTString
	s.AddChild(cust, "Address", model.KindColumn).Type = model.DTString
	if _, err := s.AddRefInt("Order-Customer-fk", []*model.Element{cid}, cust); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestJoinViewAugmentation(t *testing.T) {
	s := buildFK(t)
	tr, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var jv *Node
	for _, n := range tr.Nodes {
		if n.IsJoinView {
			jv = n
		}
	}
	if jv == nil {
		t.Fatalf("no join view node\n%s", tr.Dump())
	}
	if jv.Name() != "Order-Customer-fk" {
		t.Errorf("join view name = %q", jv.Name())
	}
	if jv.Parent != tr.Root {
		t.Errorf("join view parent = %v, want root (common ancestor)", jv.Parent.Name())
	}
	// Children: copies of the columns of both tables (3 + 3).
	if len(jv.Children) != 6 {
		t.Errorf("join view children = %d, want 6\n%s", len(jv.Children), tr.Dump())
	}
	for _, c := range jv.Children {
		if c.CopyOf == nil {
			t.Errorf("join view child %s not marked as copy", c.Name())
		}
	}
	// Join view appears after both tables in post-order (DAG ordering fix).
	for _, n := range tr.Nodes {
		if n.Elem.Kind == model.KindTable && n.Idx > jv.Idx {
			t.Errorf("table %s ordered after join view", n.Name())
		}
	}
}

func TestJoinViewDisabled(t *testing.T) {
	s := buildFK(t)
	tr, err := Build(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Nodes {
		if n.IsJoinView {
			t.Fatal("join view created despite JoinViews=false")
		}
	}
}

func TestViewExpansion(t *testing.T) {
	s := model.New("DB")
	t1 := s.AddChild(s.Root(), "Orders", model.KindTable)
	c1 := s.AddChild(t1, "OrderID", model.KindColumn)
	t2 := s.AddChild(s.Root(), "Items", model.KindTable)
	c2 := s.AddChild(t2, "ItemID", model.KindColumn)
	v := s.AddChild(s.Root(), "OrderItems", model.KindView)
	if err := s.Aggregate(v, c1); err != nil {
		t.Fatal(err)
	}
	if err := s.Aggregate(v, c2); err != nil {
		t.Fatal(err)
	}
	tr, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vn := tr.NodeByPath("DB.OrderItems")
	if vn == nil || !vn.IsJoinView {
		t.Fatalf("view node missing\n%s", tr.Dump())
	}
	if len(vn.Children) != 2 {
		t.Errorf("view children = %d, want 2", len(vn.Children))
	}
}

func TestOptionalRelativeTo(t *testing.T) {
	s := model.New("S")
	a := s.AddChild(s.Root(), "A", model.KindElement)
	opt := s.AddChild(a, "Opt", model.KindElement)
	opt.Optional = true
	leaf1 := s.AddChild(opt, "L1", model.KindAttribute)
	leaf2 := s.AddChild(a, "L2", model.KindAttribute)
	_ = leaf1
	_ = leaf2
	tr, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root
	aN := tr.NodeByPath("S.A")
	l1 := tr.NodeByPath("S.A.Opt.L1")
	l2 := tr.NodeByPath("S.A.L2")
	if !l1.OptionalRelativeTo(root) || !l1.OptionalRelativeTo(aN) {
		t.Error("L1 should be optional relative to root and A (Opt on path)")
	}
	if l2.OptionalRelativeTo(root) {
		t.Error("L2 should be required relative to root")
	}
	optN := tr.NodeByPath("S.A.Opt")
	if l1.OptionalRelativeTo(optN) {
		t.Error("L1 should be required relative to Opt itself (no optional strictly below)")
	}
	// An optional leaf itself is optional relative to its parent.
	s2 := model.New("S2")
	p := s2.AddChild(s2.Root(), "P", model.KindElement)
	ol := s2.AddChild(p, "OL", model.KindAttribute)
	ol.Optional = true
	tr2, err := Build(s2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pn := tr2.NodeByPath("S2.P")
	oln := tr2.NodeByPath("S2.P.OL")
	if !oln.OptionalRelativeTo(pn) {
		t.Error("optional leaf should be optional relative to its parent")
	}
}

func TestFrontier(t *testing.T) {
	s := model.New("S")
	a := s.AddChild(s.Root(), "A", model.KindElement)
	b := s.AddChild(a, "B", model.KindElement)
	s.AddChild(b, "C", model.KindAttribute)
	s.AddChild(a, "D", model.KindAttribute)
	tr, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root
	// k=1: frontier of root = {A} (non-leaf at depth 1 treated as pseudo-leaf).
	f1 := tr.Frontier(root, 1)
	if len(f1) != 1 || tr.Nodes[f1[0]].Name() != "A" {
		t.Errorf("Frontier(root,1) = %v", f1)
	}
	// k=2: frontier = {B, D}.
	f2 := tr.Frontier(root, 2)
	if len(f2) != 2 {
		t.Errorf("Frontier(root,2) = %v", f2)
	}
	// k=0: all leaves.
	f0 := tr.Frontier(root, 0)
	if len(f0) != tr.NumLeaves() {
		t.Errorf("Frontier(root,0) = %v", f0)
	}
}

func TestMaxNodesGuard(t *testing.T) {
	// Chain of shared types multiplying contexts: each level derives twice
	// from the level below, doubling the expansion.
	s := model.New("S")
	prev := s.AddChild(s.Root(), "T0", model.KindType)
	s.AddChild(prev, "leaf", model.KindAttribute)
	for i := 1; i < 20; i++ {
		ti := s.AddChild(s.Root(), "T"+strings.Repeat("i", i), model.KindType)
		a := s.AddChild(ti, "a", model.KindElement)
		b := s.AddChild(ti, "b", model.KindElement)
		if err := s.DeriveFrom(a, prev); err != nil {
			t.Fatal(err)
		}
		if err := s.DeriveFrom(b, prev); err != nil {
			t.Fatal(err)
		}
		prev = ti
	}
	_, err := Build(s, Options{MaxNodes: 10000})
	if err == nil {
		t.Fatal("Build accepted exponential expansion beyond MaxNodes")
	}
}

// rootViews builds a schema whose root holds one column and k views, each
// aggregating the root: every view copies the root's subtree, the earlier
// views included, so the tree doubles per view (2, 5, 11, 23, … nodes).
func rootViews(t *testing.T, k int) *model.Schema {
	t.Helper()
	s := model.New("S")
	s.AddChild(s.Root(), "c", model.KindColumn)
	for i := 0; i < k; i++ {
		v := s.AddChild(s.Root(), "V"+strings.Repeat("i", i), model.KindView)
		if err := s.Aggregate(v, s.Root()); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestMaxNodesCountsViewCopies(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxNodes = 23
	tr, err := Build(rootViews(t, 3), opt)
	if err != nil {
		t.Fatalf("3 views within the cap: %v", err)
	}
	if n := len(tr.Nodes); n != 23 {
		t.Fatalf("3 views expand to %d nodes, want 23", n)
	}
	opt.MaxNodes = 22
	if _, err := Build(rootViews(t, 3), opt); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("23 nodes under a cap of 22: err = %v, want the node-cap error", err)
	}
	// 40 views would ask for about 2^41 nodes; the cap stops the copying.
	opt.MaxNodes = 10000
	if _, err := Build(rootViews(t, 40), opt); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("40 views: err = %v, want the node-cap error", err)
	}
}

func TestStatsAndDump(t *testing.T) {
	s := buildFK(t)
	tr, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := tr.ComputeStats()
	if st.JoinViews != 1 {
		t.Errorf("JoinViews = %d, want 1", st.JoinViews)
	}
	if st.Copies == 0 {
		t.Error("Copies = 0, want > 0 (join view children)")
	}
	if st.Nodes != tr.Len() || st.Leaves != tr.NumLeaves() {
		t.Error("stats disagree with tree")
	}
	d := tr.Dump()
	if !strings.Contains(d, "(joinview)") || !strings.Contains(d, "(copy)") {
		t.Errorf("Dump missing annotations:\n%s", d)
	}
}

// Invariants: post-order indexes are dense; every subtree occupies the
// contiguous range [SubFirst, Idx]; leaves lists are consistent.
func TestTreeInvariants(t *testing.T) {
	s, _ := buildShared(t)
	tr, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range tr.Nodes {
		if n.Idx != i {
			t.Fatalf("Idx mismatch at %d", i)
		}
		if n.SubFirst > n.Idx {
			t.Fatalf("SubFirst %d > Idx %d", n.SubFirst, n.Idx)
		}
		// Every child's range nests inside the parent's.
		for _, c := range n.Children {
			if c.SubFirst < n.SubFirst || c.Idx >= n.Idx {
				t.Fatalf("child range [%d,%d] outside parent [%d,%d]",
					c.SubFirst, c.Idx, n.SubFirst, n.Idx)
			}
		}
		// Leaves(n) all fall inside the range and are leaves.
		for _, li := range tr.Leaves(n) {
			if li < n.SubFirst || li > n.Idx {
				t.Fatalf("leaf %d outside [%d,%d]", li, n.SubFirst, n.Idx)
			}
			if !tr.Nodes[li].IsLeaf() {
				t.Fatalf("Leaves returned non-leaf %d", li)
			}
		}
	}
	// Root covers everything.
	if tr.Root.Idx != tr.Len()-1 || tr.Root.SubFirst != 0 {
		t.Error("root range wrong")
	}
}

// TestLeavesMatchesSubtreeRangeSearch: the leaf range Build records per
// node must give exactly the slice the subtree range [SubFirst, Idx]
// selects from the tree's leaf list by binary search, and NonLeaves every
// other index in ascending order, for every node of
// synthetic trees (with foreign keys), a family corpus, join views (RDB,
// Star) and type substitution (CIDX/Excel, the shared-type PO).
func TestLeavesMatchesSubtreeRangeSearch(t *testing.T) {
	schemas := []*model.Schema{workloads.CIDX(), workloads.Excel(), workloads.RDB(), workloads.Star()}
	for _, w := range []workloads.Workload{
		workloads.SharedTypePO(),
		workloads.Synthetic(workloads.SyntheticSpec{Tables: 6, ColsPerTable: 7, Depth: 3, Seed: 4, Rename: 0.3, Renest: 0.3, FKs: 3}),
		workloads.Synthetic(workloads.SyntheticSpec{Tables: 2, ColsPerTable: 1, Depth: 1, Seed: 1}),
	} {
		schemas = append(schemas, w.Source, w.Target)
	}
	schemas = append(schemas, workloads.FamilyCorpus(workloads.FamilyCorpusSpec{Families: 3, PerFamily: 3, Seed: 5})...)
	s, _ := buildShared(t)
	schemas = append(schemas, s)

	joinViews, copies := 0, 0
	for _, s := range schemas {
		tr, err := Build(s, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		var leaves, nonLeaves []int
		for _, n := range tr.Nodes {
			if n.IsLeaf() {
				leaves = append(leaves, n.Idx)
			} else {
				nonLeaves = append(nonLeaves, n.Idx)
			}
		}
		if got := tr.NonLeaves(); !slices.Equal(got, nonLeaves) {
			t.Fatalf("%s: NonLeaves = %v, want %v", s.Name, got, nonLeaves)
		}
		for _, n := range tr.Nodes {
			lo := sort.SearchInts(leaves, n.SubFirst)
			hi := sort.SearchInts(leaves, n.Idx+1)
			if got, want := tr.Leaves(n), leaves[lo:hi]; !slices.Equal(got, want) {
				t.Fatalf("%s: Leaves(%s) = %v, subtree range gives %v", s.Name, n.Path(), got, want)
			}
		}
		st := tr.ComputeStats()
		joinViews += st.JoinViews
		copies += st.Copies
	}
	if joinViews == 0 || copies == 0 {
		t.Fatalf("the trees cover %d join views and %d context copies, want both", joinViews, copies)
	}
}
