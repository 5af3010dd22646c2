package structural

import (
	"fmt"
	"testing"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/schematree"
)

// lsimByName builds a node-level lsim matrix: 1.0 for equal names, plus
// explicit overrides for named pairs (order-insensitive).
func lsimByName(ts, tt *schematree.Tree, overrides map[[2]string]float64) matrix.Matrix {
	l := matrix.New(ts.Len(), tt.Len())
	get := func(a, b string) (float64, bool) {
		if v, ok := overrides[[2]string{a, b}]; ok {
			return v, true
		}
		v, ok := overrides[[2]string{b, a}]
		return v, ok
	}
	for _, s := range ts.Nodes {
		for _, t := range tt.Nodes {
			switch {
			case s.Name() == t.Name():
				l.Set(s.Idx, t.Idx, 1)
			default:
				if v, ok := get(s.Name(), t.Name()); ok {
					l.Set(s.Idx, t.Idx, v)
				}
			}
		}
	}
	return l
}

func mustTree(t *testing.T, s *model.Schema) *schematree.Tree {
	t.Helper()
	tr, err := schematree.Build(s, schematree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// flatCustomer builds Customer(CustomerNumber:int, Name:string,
// Address:string) under the given schema name.
func flatCustomer(name string) *model.Schema {
	s := model.New(name)
	c := s.AddChild(s.Root(), "Customer", model.KindTable)
	s.AddChild(c, "CustomerNumber", model.KindColumn).Type = model.DTInt
	s.AddChild(c, "Name", model.KindColumn).Type = model.DTString
	s.AddChild(c, "Address", model.KindColumn).Type = model.DTString
	return s
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	p.ThHigh = 0.3 // below thaccept
	if p.Validate() == nil {
		t.Error("accepted thhigh < thaccept")
	}
	p = DefaultParams()
	p.CInc = 0.5
	if p.Validate() == nil {
		t.Error("accepted cinc < 1")
	}
	p = DefaultParams()
	p.CDec = 0
	if p.Validate() == nil {
		t.Error("accepted cdec = 0")
	}
	p = DefaultParams()
	p.LeafCountRatio = 0.5
	if p.Validate() == nil {
		t.Error("accepted ratio < 1")
	}
	p = DefaultParams()
	p.FrontierDepth = -1
	if p.Validate() == nil {
		t.Error("accepted negative frontier depth")
	}
}

func TestCompatTable(t *testing.T) {
	c := DefaultCompat()
	if got := c.Lookup(model.DTInt, model.DTInt); got != 0.5 {
		t.Errorf("identical types = %v, want 0.5", got)
	}
	if got := c.Lookup(model.DTInt, model.DTFloat); got != 0.45 {
		t.Errorf("int/float = %v, want 0.45", got)
	}
	if got := c.Lookup(model.DTString, model.DTInt); got != 0.3 {
		t.Errorf("string/int = %v, want 0.3", got)
	}
	if got := c.Lookup(model.DTBool, model.DTDate); got != 0.1 {
		t.Errorf("bool/date = %v, want 0.1", got)
	}
	// Symmetry over the whole table.
	for a := model.DataType(0); a < model.NumDataTypes; a++ {
		for b := model.DataType(0); b < model.NumDataTypes; b++ {
			if c[a][b] != c[b][a] {
				t.Fatalf("asymmetric at %v,%v", a, b)
			}
			if c[a][b] < 0 || c[a][b] > 0.5 {
				t.Fatalf("entry %v,%v = %v out of [0,0.5]", a, b, c[a][b])
			}
		}
	}
	// Set clamps.
	c.Set(model.DTInt, model.DTBool, 0.9)
	if c.Lookup(model.DTInt, model.DTBool) != 0.5 {
		t.Error("Set did not clamp to 0.5")
	}
}

func TestIdenticalSchemasMatch(t *testing.T) {
	ts := mustTree(t, flatCustomer("S1"))
	tt := mustTree(t, flatCustomer("S2"))
	lsim := lsimByName(ts, tt, nil)
	p := DefaultParams()
	res := TreeMatch(ts, tt, lsim, p)

	// Every leaf maps to its namesake with wsim >= thaccept.
	for _, si := range ts.Leaves(ts.Root) {
		s := ts.Nodes[si]
		for _, ti := range tt.Leaves(tt.Root) {
			tn := tt.Nodes[ti]
			w := res.WSim.At(si, ti)
			if s.Name() == tn.Name() && w < p.ThAccept {
				t.Errorf("wsim(%s,%s) = %v below thaccept", s.Name(), tn.Name(), w)
			}
			if s.Name() != tn.Name() && w >= res.WSim.At(si, bestByName(tt, s.Name())) {
				t.Errorf("wsim(%s,%s) = %v not below namesake", s.Name(), tn.Name(), w)
			}
		}
	}
	// Customer table pair matches structurally.
	cs := ts.NodeByPath("S1.Customer")
	ct := tt.NodeByPath("S2.Customer")
	if res.SSim.At(cs.Idx, ct.Idx) < 0.99 {
		t.Errorf("ssim(Customer,Customer) = %v, want ~1", res.SSim.At(cs.Idx, ct.Idx))
	}
	if res.Comparisons == 0 {
		t.Error("no comparisons recorded")
	}
}

func bestByName(tt *schematree.Tree, name string) int {
	for _, n := range tt.Nodes {
		if n.Name() == name {
			return n.Idx
		}
	}
	return 0
}

// TestContextDisambiguation reproduces the paper's City/Street example:
// City and Street under POBillTo must bind to City and Street under
// InvoiceTo (Bill ~ Invoice) rather than under DeliverTo.
func TestContextDisambiguation(t *testing.T) {
	s1 := model.New("PO")
	bill := s1.AddChild(s1.Root(), "POBillTo", model.KindElement)
	s1.AddChild(bill, "City", model.KindColumn).Type = model.DTString
	s1.AddChild(bill, "Street", model.KindColumn).Type = model.DTString
	ship := s1.AddChild(s1.Root(), "POShipTo", model.KindElement)
	s1.AddChild(ship, "City", model.KindColumn).Type = model.DTString
	s1.AddChild(ship, "Street", model.KindColumn).Type = model.DTString

	s2 := model.New("PurchaseOrder")
	inv := s2.AddChild(s2.Root(), "InvoiceTo", model.KindElement)
	s2.AddChild(inv, "City", model.KindColumn).Type = model.DTString
	s2.AddChild(inv, "Street", model.KindColumn).Type = model.DTString
	del := s2.AddChild(s2.Root(), "DeliverTo", model.KindElement)
	s2.AddChild(del, "City", model.KindColumn).Type = model.DTString
	s2.AddChild(del, "Street", model.KindColumn).Type = model.DTString

	ts, tt := mustTree(t, s1), mustTree(t, s2)
	lsim := lsimByName(ts, tt, map[[2]string]float64{
		{"POBillTo", "InvoiceTo"}: 0.85,
		{"POShipTo", "DeliverTo"}: 0.85,
		{"PO", "PurchaseOrder"}:   1.0,
	})
	res := TreeMatch(ts, tt, lsim, DefaultParams())

	cityBill := ts.NodeByPath("PO.POBillTo.City")
	cityInv := tt.NodeByPath("PurchaseOrder.InvoiceTo.City")
	cityDel := tt.NodeByPath("PurchaseOrder.DeliverTo.City")
	wInv := res.WSim.At(cityBill.Idx, cityInv.Idx)
	wDel := res.WSim.At(cityBill.Idx, cityDel.Idx)
	if wInv <= wDel {
		t.Errorf("POBillTo.City: wsim(InvoiceTo.City)=%v should exceed wsim(DeliverTo.City)=%v", wInv, wDel)
	}
	// And the containers themselves.
	bN := ts.NodeByPath("PO.POBillTo")
	iN := tt.NodeByPath("PurchaseOrder.InvoiceTo")
	dN := tt.NodeByPath("PurchaseOrder.DeliverTo")
	if res.WSim.At(bN.Idx, iN.Idx) <= res.WSim.At(bN.Idx, dN.Idx) {
		t.Errorf("POBillTo should prefer InvoiceTo: %v vs %v",
			res.WSim.At(bN.Idx, iN.Idx), res.WSim.At(bN.Idx, dN.Idx))
	}
}

// TestNestingRobustness reproduces canonical example 5: a nested and a
// flat Customer schema still produce correct leaf matches because ssim is
// leaf-based.
func TestNestingRobustness(t *testing.T) {
	nested := model.New("Nested")
	c := nested.AddChild(nested.Root(), "Customer", model.KindTable)
	nested.AddChild(c, "SSN", model.KindColumn).Type = model.DTInt
	nm := nested.AddChild(c, "Name", model.KindElement)
	nested.AddChild(nm, "FirstName", model.KindColumn).Type = model.DTString
	nested.AddChild(nm, "LastName", model.KindColumn).Type = model.DTString
	ad := nested.AddChild(c, "Address", model.KindElement)
	nested.AddChild(ad, "Street", model.KindColumn).Type = model.DTString
	nested.AddChild(ad, "City", model.KindColumn).Type = model.DTString

	flat := model.New("Flat")
	f := flat.AddChild(flat.Root(), "Customer", model.KindTable)
	for _, col := range []string{"SSN", "FirstName", "LastName", "Street", "City"} {
		typ := model.DTString
		if col == "SSN" {
			typ = model.DTInt
		}
		flat.AddChild(f, col, model.KindColumn).Type = typ
	}

	ts, tt := mustTree(t, nested), mustTree(t, flat)
	lsim := lsimByName(ts, tt, nil)
	p := DefaultParams()
	res := TreeMatch(ts, tt, lsim, p)
	for _, name := range []string{"SSN", "FirstName", "LastName", "Street", "City"} {
		var sN, tN *schematree.Node
		for _, n := range ts.Nodes {
			if n.Name() == name {
				sN = n
			}
		}
		for _, n := range tt.Nodes {
			if n.Name() == name {
				tN = n
			}
		}
		if w := res.WSim.At(sN.Idx, tN.Idx); w < p.ThAccept {
			t.Errorf("nested/flat leaf %s wsim = %v below thaccept", name, w)
		}
	}
	// The two Customer nodes match despite different nesting.
	cs := ts.NodeByPath("Nested.Customer")
	cf := tt.NodeByPath("Flat.Customer")
	if w := res.WSim.At(cs.Idx, cf.Idx); w < p.ThAccept {
		t.Errorf("Customer/Customer wsim = %v below thaccept", w)
	}
}

func TestLeafCountPruning(t *testing.T) {
	s1 := model.New("A")
	big := s1.AddChild(s1.Root(), "Big", model.KindTable)
	for i := 0; i < 10; i++ {
		s1.AddChild(big, "c"+string(rune('0'+i)), model.KindColumn).Type = model.DTString
	}
	s2 := model.New("B")
	small := s2.AddChild(s2.Root(), "Small", model.KindTable)
	s2.AddChild(small, "c0", model.KindColumn).Type = model.DTString

	ts, tt := mustTree(t, s1), mustTree(t, s2)
	p := DefaultParams()
	res := TreeMatch(ts, tt, lsimByName(ts, tt, nil), p)
	if res.Pruned == 0 {
		t.Error("expected pruned pairs for 10:1 leaf-count ratio")
	}
	// Big vs Small was pruned: ssim 0.
	bN := ts.NodeByPath("A.Big")
	sN := tt.NodeByPath("B.Small")
	if res.SSim.At(bN.Idx, sN.Idx) != 0 {
		t.Errorf("pruned pair ssim = %v, want 0", res.SSim.At(bN.Idx, sN.Idx))
	}
	// Without pruning the pair is compared.
	p.LeafCountPruning = false
	res2 := TreeMatch(ts, tt, lsimByName(ts, tt, nil), p)
	if res2.Pruned != 0 {
		t.Error("pruning disabled but pairs pruned")
	}
	if res2.SSim.At(bN.Idx, sN.Idx) == 0 {
		t.Error("unpruned pair should have nonzero ssim (c0 links)")
	}
}

// TestOptionalDiscount: an optional unmatched leaf should not drag down
// its parent's structural similarity, while a required one should.
func TestOptionalDiscount(t *testing.T) {
	build := func(extraOptional bool) *model.Schema {
		s := model.New("S")
		tb := s.AddChild(s.Root(), "T", model.KindTable)
		s.AddChild(tb, "A", model.KindColumn).Type = model.DTString
		s.AddChild(tb, "B", model.KindColumn).Type = model.DTString
		x := s.AddChild(tb, "Extra", model.KindColumn)
		x.Type = model.DTString
		x.Optional = extraOptional
		return s
	}
	other := model.New("O")
	ob := other.AddChild(other.Root(), "T", model.KindTable)
	other.AddChild(ob, "A", model.KindColumn).Type = model.DTString
	other.AddChild(ob, "B", model.KindColumn).Type = model.DTString

	p := DefaultParams()
	p.LeafCountPruning = false

	tOpt := mustTree(t, build(true))
	tReq := mustTree(t, build(false))
	tOther := mustTree(t, other)

	// "Extra" has no counterpart; with lsim by name it gets no strong link.
	resOpt := TreeMatch(tOpt, tOther, lsimByName(tOpt, tOther, nil), p)
	resReq := TreeMatch(tReq, tOther, lsimByName(tReq, tOther, nil), p)

	sOpt := tOpt.NodeByPath("S.T")
	sReq := tReq.NodeByPath("S.T")
	oN := tOther.NodeByPath("O.T")
	if resOpt.SSim.At(sOpt.Idx, oN.Idx) <= resReq.SSim.At(sReq.Idx, oN.Idx) {
		t.Errorf("optional unmatched leaf should be discounted: opt=%v req=%v",
			resOpt.SSim.At(sOpt.Idx, oN.Idx), resReq.SSim.At(sReq.Idx, oN.Idx))
	}
	// With the discount the optional case is a perfect structural match.
	if resOpt.SSim.At(sOpt.Idx, oN.Idx) < 0.99 {
		t.Errorf("optional-discounted ssim = %v, want ~1", resOpt.SSim.At(sOpt.Idx, oN.Idx))
	}
}

// sharedAddressPO builds a PO whose ShipTo and BillTo share one Address
// type: duplicated subtrees, on which the lazy memo hits.
func sharedAddressPO(t *testing.T) *model.Schema {
	t.Helper()
	s := model.New("PO")
	addr := s.AddChild(s.Root(), "Address", model.KindType)
	s.AddChild(addr, "Street", model.KindColumn).Type = model.DTString
	s.AddChild(addr, "City", model.KindColumn).Type = model.DTString
	s.AddChild(addr, "Zip", model.KindColumn).Type = model.DTString
	ship := s.AddChild(s.Root(), "ShipTo", model.KindElement)
	bill := s.AddChild(s.Root(), "BillTo", model.KindElement)
	if err := s.DeriveFrom(ship, addr); err != nil {
		t.Fatal(err)
	}
	if err := s.DeriveFrom(bill, addr); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLazyMemoIdenticalResults: lazy expansion is an optimization only —
// results must match the eager computation bit for bit, and it must
// actually hit its memo on a schema with shared types.
func TestLazyMemoIdenticalResults(t *testing.T) {
	ts, tt := mustTree(t, sharedAddressPO(t)), mustTree(t, sharedAddressPO(t))
	lsim := lsimByName(ts, tt, nil)

	p := DefaultParams()
	p.LazyMemo = false
	eager := TreeMatch(ts, tt, lsim, p)
	p.LazyMemo = true
	lazy := TreeMatch(ts, tt, lsim, p)

	if lazy.MemoHits == 0 {
		t.Error("lazy run recorded no memo hits on duplicated subtrees")
	}
	for i := 0; i < eager.SSim.Rows(); i++ {
		for j := 0; j < eager.SSim.Cols(); j++ {
			if eager.SSim.At(i, j) != lazy.SSim.At(i, j) {
				t.Fatalf("ssim[%d][%d] differs: eager %v lazy %v",
					i, j, eager.SSim.At(i, j), lazy.SSim.At(i, j))
			}
			if eager.WSim.At(i, j) != lazy.WSim.At(i, j) {
				t.Fatalf("wsim[%d][%d] differs: eager %v lazy %v",
					i, j, eager.WSim.At(i, j), lazy.WSim.At(i, j))
			}
		}
	}
}

func TestBasisChildrenAblation(t *testing.T) {
	ts := mustTree(t, flatCustomer("S1"))
	tt := mustTree(t, flatCustomer("S2"))
	p := DefaultParams()
	p.StructuralBasis = BasisChildren
	res := TreeMatch(ts, tt, lsimByName(ts, tt, nil), p)
	cs := ts.NodeByPath("S1.Customer")
	ct := tt.NodeByPath("S2.Customer")
	if res.SSim.At(cs.Idx, ct.Idx) < 0.99 {
		t.Errorf("children-basis ssim(Customer,Customer) = %v", res.SSim.At(cs.Idx, ct.Idx))
	}
}

func TestFrontierDepthBasis(t *testing.T) {
	ts := mustTree(t, flatCustomer("S1"))
	tt := mustTree(t, flatCustomer("S2"))
	p := DefaultParams()
	p.FrontierDepth = 1
	res := TreeMatch(ts, tt, lsimByName(ts, tt, nil), p)
	cs := ts.NodeByPath("S1.Customer")
	ct := tt.NodeByPath("S2.Customer")
	if res.SSim.At(cs.Idx, ct.Idx) < 0.99 {
		t.Errorf("frontier-basis ssim = %v", res.SSim.At(cs.Idx, ct.Idx))
	}
}

func TestSecondPassRefreshesNonLeaves(t *testing.T) {
	ts := mustTree(t, flatCustomer("S1"))
	tt := mustTree(t, flatCustomer("S2"))
	lsim := lsimByName(ts, tt, nil)
	p := DefaultParams()
	res := TreeMatch(ts, tt, lsim, p)

	// Corrupt a non-leaf entry, run the second pass, verify recomputation.
	cs := ts.NodeByPath("S1.Customer")
	ct := tt.NodeByPath("S2.Customer")
	res.SSim.Set(cs.Idx, ct.Idx, 0.123)
	SecondPass(res, ts, tt, lsim, p)
	if res.SSim.At(cs.Idx, ct.Idx) < 0.99 {
		t.Errorf("second pass did not recompute: %v", res.SSim.At(cs.Idx, ct.Idx))
	}
}

// All similarities stay within [0,1] even with aggressive increase factors.
func TestBounds(t *testing.T) {
	ts := mustTree(t, flatCustomer("S1"))
	tt := mustTree(t, flatCustomer("S2"))
	p := DefaultParams()
	p.CInc = 3.0
	res := TreeMatch(ts, tt, lsimByName(ts, tt, nil), p)
	for i := 0; i < res.SSim.Rows(); i++ {
		for j := 0; j < res.SSim.Cols(); j++ {
			if res.SSim.At(i, j) < 0 || res.SSim.At(i, j) > 1 {
				t.Fatalf("ssim out of range: %v", res.SSim.At(i, j))
			}
			if res.WSim.At(i, j) < 0 || res.WSim.At(i, j) > 1 {
				t.Fatalf("wsim out of range: %v", res.WSim.At(i, j))
			}
		}
	}
}

// Determinism: two runs produce identical matrices.
func TestDeterminism(t *testing.T) {
	ts := mustTree(t, flatCustomer("S1"))
	tt := mustTree(t, flatCustomer("S2"))
	lsim := lsimByName(ts, tt, nil)
	a := TreeMatch(ts, tt, lsim, DefaultParams())
	b := TreeMatch(ts, tt, lsim, DefaultParams())
	for i := 0; i < a.WSim.Rows(); i++ {
		for j := 0; j < a.WSim.Cols(); j++ {
			if a.WSim.At(i, j) != b.WSim.At(i, j) {
				t.Fatalf("nondeterministic wsim at %d,%d", i, j)
			}
		}
	}
}

// TestScratchReuseMatchesFresh runs TreeMatch and SecondPass for a
// sequence of pairs through one Scratch and one reused Result — large,
// then the small shared-type pair under the lazy memo (whose hits depend
// on cleared touched flags), then large again — and requires matrices and
// statistics identical to the allocating forms.
func TestScratchReuseMatchesFresh(t *testing.T) {
	wide := model.New("Wide")
	for i := 0; i < 6; i++ {
		tbl := wide.AddChild(wide.Root(), fmt.Sprintf("T%d", i), model.KindTable)
		for j := 0; j < 8; j++ {
			wide.AddChild(tbl, fmt.Sprintf("C%d", (i+j)%10), model.KindColumn).Type = model.DTInt
		}
	}
	large := mustTree(t, wide)
	shared := mustTree(t, sharedAddressPO(t))
	lazy := DefaultParams()
	lazy.LazyMemo = true
	if TreeMatch(shared, shared, lsimByName(shared, shared, nil), lazy).MemoHits == 0 {
		t.Fatal("the shared-type pair records no memo hits: the sequence would not cover the touched flags")
	}
	type pair struct {
		ts, tt *schematree.Tree
		p      Params
	}
	seq := []pair{{large, large, DefaultParams()}, {shared, shared, lazy}, {large, shared, lazy}, {shared, shared, lazy}, {large, large, lazy}}
	var sc Scratch
	var res Result
	for i, c := range seq {
		lsim := lsimByName(c.ts, c.tt, nil)
		want := TreeMatch(c.ts, c.tt, lsim, c.p)
		sc.TreeMatch(&res, c.ts, c.tt, lsim, c.p)
		stats := func(r *Result) [4]int { return [4]int{r.Comparisons, r.Pruned, r.MemoHits, r.Shortcuts} }
		if !res.SSim.Equal(want.SSim) || !res.WSim.Equal(want.WSim) || stats(&res) != stats(want) {
			t.Fatalf("pair %d: TreeMatch on a reused scratch differs (stats %v, fresh %v)", i, stats(&res), stats(want))
		}
		SecondPass(want, c.ts, c.tt, lsim, c.p)
		sc.SecondPass(&res, c.ts, c.tt, lsim, c.p)
		if !res.SSim.Equal(want.SSim) || !res.WSim.Equal(want.WSim) || stats(&res) != stats(want) {
			t.Fatalf("pair %d: SecondPass on a reused scratch differs (stats %v, fresh %v)", i, stats(&res), stats(want))
		}
	}
}
