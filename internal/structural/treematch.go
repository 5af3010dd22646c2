package structural

import (
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/schematree"
)

// Result holds the similarity matrices computed by TreeMatch, indexed by
// the post-order indexes of the source and target trees.
type Result struct {
	// SSim is the structural similarity; leaf entries start from the
	// data-type compatibility table and are mutated by the increase /
	// decrease steps.
	SSim matrix.Matrix
	// WSim is the weighted similarity wsim = wstruct·ssim + (1−wstruct)·lsim.
	// After TreeMatch returns, leaf entries reflect the final leaf ssim;
	// non-leaf entries are as of their (single) visit — call SecondPass to
	// recompute them for non-leaf mapping generation (paper §7).
	WSim matrix.Matrix

	// Stats.
	Comparisons int // node pairs fully compared, skipped leaf×leaf visits included
	Pruned      int // node pairs skipped by leaf-count pruning
	MemoHits    int // lazy-expansion reuses
	Shortcuts   int // children-shortcut fast paths taken (§8.4)
}

type matcher struct {
	ts, tt *schematree.Tree
	lsim   matrix.Matrix
	p      Params
	compat *CompatTable
	res    *Result

	// touched marks leaves whose ssim was modified by increase/decrease;
	// the lazy memo is only valid for untouched subtrees.
	touchedS []bool
	touchedT []bool
	memo     map[[2]string]float64
	// frontier caches the descendant basis per node.
	frontS, frontT [][]int
	// pending is structuralSim's list of target basis nodes.
	pending []int
}

// Scratch is reusable working memory for TreeMatch and SecondPass: the
// per-node touched flags and basis slices and the strong-link scan's
// pending list, grown to the largest trees it has served and reused
// (cleared) on every call. The zero value is ready to use; a Scratch must
// not be used by two calls at once. It keeps no reference to trees,
// matrices or results once a call returns.
type Scratch struct {
	m matcher
}

// TreeMatch runs the algorithm of Figure 3 over two expanded schema trees.
// lsim must be indexed by node post-order indexes ([sIdx][tIdx]); the core
// package derives it from element-level linguistic similarity. The
// parameter set p should satisfy p.Validate(). TreeMatch allocates its
// result and working memory; Scratch.TreeMatch runs the same algorithm on
// reused memory.
func TreeMatch(ts, tt *schematree.Tree, lsim matrix.Matrix, p Params) *Result {
	res := new(Result)
	new(Scratch).TreeMatch(res, ts, tt, lsim, p)
	return res
}

// TreeMatch is the package-level TreeMatch with its working memory drawn
// from sc and its result written into res: res.SSim and res.WSim are
// reshaped over their own storage (matrix.Matrix.Reshape, so a zero Result
// gets fresh matrices and a reused one keeps its capacity), and the
// statistics restart from zero.
func (sc *Scratch) TreeMatch(res *Result, ts, tt *schematree.Tree, lsim matrix.Matrix, p Params) {
	ns, nt := ts.Len(), tt.Len()
	*res = Result{SSim: res.SSim.Reshape(ns, nt), WSim: res.WSim.Reshape(ns, nt)}
	m := sc.start(res, ts, tt, lsim, p)
	defer sc.release()
	// The lazy memo's copy-invariance argument holds for the leaf basis
	// only (frontier and children bases include non-leaf cells whose
	// values are not copy-invariant), so it is disabled otherwise.
	if p.LazyMemo && p.StructuralBasis == BasisLeaves && p.FrontierDepth == 0 {
		m.memo = map[[2]string]float64{}
	}

	// Phase 1: initialize leaf structural similarity from the data-type
	// compatibility table (value in [0, 0.5]). Embarrassingly parallel:
	// each source leaf owns its matrix row, the compat table is read-only.
	srcLeaves := ts.Leaves(ts.Root)
	tgtLeaves := tt.Leaves(tt.Root)
	par.For(len(srcLeaves), func(i int) {
		si := srcLeaves[i]
		se := ts.Nodes[si].Elem
		row := res.SSim.Row(si)
		for _, ti := range tgtLeaves {
			te := tt.Nodes[ti].Elem
			if m.p.LeafCompat != nil {
				if v, ok := m.p.LeafCompat(se, te); ok {
					row[ti] = v
					continue
				}
			}
			row[ti] = m.compat.Lookup(se.Type, te.Type)
		}
	})

	// Phase 2: post-order sweep over the node pairs. Sequential by design:
	// the increase/decrease steps make later comparisons depend on earlier
	// ones, so this is where the paper's order semantics live.
	//
	// A leaf×leaf visit changes nothing the sweep or the caller reads: it
	// runs no increase/decrease, writes no ssim, and the wsim it writes is
	// overwritten by the leaf refresh below. So a leaf source visits only
	// the target's non-leaves, in post-order, and the skipped visits are
	// counted in bulk; the remaining visits keep their relative order, so
	// every result and statistic is the full sweep's. The one reader of
	// visit-time leaf wsim is the children shortcut (a non-leaf pair reads
	// its children's wsim), so with it on, leaf sources visit every target.
	nonLeaves := tt.NonLeaves()
	for _, s := range ts.Nodes {
		if !s.IsLeaf() || p.ChildrenShortcut {
			for _, t := range tt.Nodes {
				m.compare(s, t)
			}
			continue
		}
		res.Comparisons += len(tgtLeaves)
		for _, ti := range nonLeaves {
			m.compare(s, tt.Nodes[ti])
		}
	}

	// Refresh leaf wsim entries: increase/decrease steps after a leaf
	// pair's visit may have changed its ssim. Also embarrassingly parallel
	// (reads final ssim/lsim, writes disjoint wsim rows).
	par.For(len(srcLeaves), func(i int) {
		si := srcLeaves[i]
		wRow := res.WSim.Row(si)
		for _, ti := range tgtLeaves {
			wRow[ti] = m.wsimLeaf(si, ti)
		}
	})
}

// start readies sc's matcher for one call: cleared touched flags and the
// basis of every node of both trees, in the scratch's reused storage.
func (sc *Scratch) start(res *Result, ts, tt *schematree.Tree, lsim matrix.Matrix, p Params) *matcher {
	m := &sc.m
	*m = matcher{ts: ts, tt: tt, lsim: lsim, p: p, compat: p.Table(), res: res,
		touchedS: m.touchedS, touchedT: m.touchedT, frontS: m.frontS, frontT: m.frontT, pending: m.pending}
	m.touchedS = resetFlags(m.touchedS, ts.Len())
	m.touchedT = resetFlags(m.touchedT, tt.Len())
	m.frontS = m.bases(m.frontS, ts)
	m.frontT = m.bases(m.frontT, tt)
	return m
}

// release drops every reference the finished call left in sc, keeping
// only the reusable storage.
func (sc *Scratch) release() {
	m := &sc.m
	clear(m.frontS)
	clear(m.frontT)
	*m = matcher{touchedS: m.touchedS, touchedT: m.touchedT, frontS: m.frontS, frontT: m.frontT, pending: m.pending}
}

// resetFlags returns buf resized to n cleared flags, reallocating only when
// its capacity falls short.
func resetFlags(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// bases returns buf resized to tr's node count, holding every node's basis
// (indexed by post-order index).
func (m *matcher) bases(buf [][]int, tr *schematree.Tree) [][]int {
	if cap(buf) < tr.Len() {
		buf = make([][]int, tr.Len())
	}
	buf = buf[:tr.Len()]
	for _, n := range tr.Nodes {
		buf[n.Idx] = m.basis(tr, n)
	}
	return buf
}

// basis returns the descendant set that drives structural similarity for a
// node: its leaves (default), its depth-k frontier, or its immediate
// children (ablation). For a leaf it is the node itself — the tree's own
// one-element leaf range, so the default basis never allocates.
func (m *matcher) basis(tr *schematree.Tree, n *schematree.Node) []int {
	switch {
	case n.IsLeaf():
		return tr.Leaves(n)
	case m.p.StructuralBasis == BasisChildren:
		out := make([]int, len(n.Children))
		for i, c := range n.Children {
			out[i] = c.Idx
		}
		return out
	case m.p.FrontierDepth > 0:
		return tr.Frontier(n, m.p.FrontierDepth)
	}
	return tr.Leaves(n)
}

// wsimLeaf computes the current weighted similarity of a leaf (or
// pseudo-leaf basis node) pair from live ssim.
func (m *matcher) wsimLeaf(si, ti int) float64 {
	w := m.p.WStructLeaf
	return w*m.res.SSim.At(si, ti) + (1-w)*m.lsim.At(si, ti)
}

// compare processes one (s,t) pair of the post-order sweep. The sweep
// brings it a leaf×leaf pair only when the children shortcut is on.
func (m *matcher) compare(s, t *schematree.Node) {
	bothLeaves := s.IsLeaf() && t.IsLeaf()
	ls, lt := m.frontS[s.Idx], m.frontT[t.Idx]

	if !bothLeaves && m.pruned(ls, lt) {
		m.res.Pruned++
		// Not compared: ssim stays 0, wsim records the linguistic part
		// only, no increase/decrease.
		m.res.WSim.Set(s.Idx, t.Idx, (1-m.p.WStruct)*m.lsim.At(s.Idx, t.Idx))
		return
	}
	m.res.Comparisons++

	var ssim, w float64
	if bothLeaves {
		ssim = m.res.SSim.At(s.Idx, t.Idx) // initialized from the compat table
		w = m.p.WStructLeaf
	} else {
		ssim = m.structuralSim(s, t, ls, lt)
		m.res.SSim.Set(s.Idx, t.Idx, ssim)
		w = m.p.WStruct
	}
	wsim := w*ssim + (1-w)*m.lsim.At(s.Idx, t.Idx)
	m.res.WSim.Set(s.Idx, t.Idx, wsim)

	// Increase/decrease applies only to comparisons involving a non-leaf:
	// the paper's rationale is ancestor context ("leaves with highly
	// similar ancestors occur in similar contexts"), and a leaf pair is
	// not its own ancestor — letting leaf pairs adjust themselves would
	// decay every pure-structural match (zero lsim, compatible types)
	// below rescue before any ancestor is compared.
	if !bothLeaves {
		switch {
		case wsim > m.p.ThHigh:
			m.adjustLeaves(s, t, m.p.CInc)
		case wsim < m.p.ThLow:
			m.adjustLeaves(s, t, m.p.CDec)
		}
	}
}

// pruned reports whether leaf-count pruning skips a pair with bases ls and
// lt: their sizes differ by more than LeafCountRatio.
func (m *matcher) pruned(ls, lt []int) bool {
	if !m.p.LeafCountPruning {
		return false
	}
	a, b := len(ls), len(lt)
	if a > b {
		a, b = b, a
	}
	return float64(b) > m.p.LeafCountRatio*float64(a)
}

// structuralSim estimates ssim(s,t) as the fraction of basis nodes in the
// two subtrees that have at least one strong link into the other subtree:
// a basis pair whose weighted similarity (wsimLeaf, from live ssim) is at
// or above ThAccept (paper §6).
// With OptionalDiscount, optional leaves lacking a strong link are dropped
// from both numerator and denominator (§8.4).
//
// Both sides are counted in one walk over the source basis rows, so every
// read goes along a row of ssim and lsim (two row slices per source basis
// node) instead of down a column. The target basis starts out pending; a
// source node checks every pending target, and each one it strongly links
// is retired. A target is therefore checked against the source rows in
// order until its first strong link, exactly as a column scan would, and a
// source node that retired none scans the retired targets until its first
// link. The linked and total counts are the same integers as two separate
// scans give. TreeMatch and SecondPass both come here under every basis;
// the pending list lives in the Scratch.
func (m *matcher) structuralSim(s, t *schematree.Node, ls, lt []int) float64 {
	if m.memo != nil {
		if v, ok := m.memoLookup(s, t, ls, lt); ok {
			m.res.MemoHits++
			return v
		}
	}
	if m.p.ChildrenShortcut && !s.IsLeaf() && !t.IsLeaf() {
		if v, ok := m.childrenShortcut(s, t); ok {
			m.res.Shortcuts++
			return v
		}
	}
	w, th := m.p.WStructLeaf, m.p.ThAccept
	pending := append(m.pending[:0], lt...)
	m.pending = pending
	open := len(pending) // pending[:open] has no strong link yet; pending[open:] has
	linked, total := 0, 0
	for _, x := range ls {
		ss, ll := m.res.SSim.Row(x), m.lsim.Row(x)
		has := false
		for k := 0; k < open; {
			if y := pending[k]; w*ss[y]+(1-w)*ll[y] >= th {
				open--
				pending[k], pending[open] = pending[open], y
				has = true
				continue
			}
			k++
		}
		for i := open; !has && i < len(pending); i++ {
			y := pending[i]
			has = w*ss[y]+(1-w)*ll[y] >= th
		}
		switch {
		case has:
			linked++
			total++
		case m.p.OptionalDiscount && m.isOptionalBasis(0, x, s):
			// dropped from numerator and denominator
		default:
			total++
		}
	}
	linked += len(lt) - open
	total += len(lt) - open
	for _, y := range pending[:open] {
		if !m.p.OptionalDiscount || !m.isOptionalBasis(1, y, t) {
			total++
		}
	}
	var v float64
	if total > 0 {
		v = float64(linked) / float64(total)
	}
	if m.memo != nil {
		m.memoStore(s, t, ls, lt, v)
	}
	return v
}

// childrenShortcut compares the immediate children of two non-leaf nodes
// using their already-computed weighted similarities (post-order
// guarantees children were visited first). When the linked fraction is a
// very good match, it stands in for the leaf-level computation (§8.4:
// "While comparing nearly identical schemas, it might seem wasteful to
// compare the leaves ... If a very good match is detected, then the leaf
// level similarity computation is skipped").
func (m *matcher) childrenShortcut(s, t *schematree.Node) (float64, bool) {
	th := m.p.ShortcutThreshold
	if th == 0 {
		th = 0.95
	}
	linked := 0
	total := len(s.Children) + len(t.Children)
	if total == 0 {
		return 0, false
	}
	for _, cs := range s.Children {
		for _, ct := range t.Children {
			if m.res.WSim.At(cs.Idx, ct.Idx) >= m.p.ThAccept {
				linked++
				break
			}
		}
	}
	for _, ct := range t.Children {
		for _, cs := range s.Children {
			if m.res.WSim.At(cs.Idx, ct.Idx) >= m.p.ThAccept {
				linked++
				break
			}
		}
	}
	v := float64(linked) / float64(total)
	if v >= th {
		return v, true
	}
	return 0, false
}

// isOptionalBasis reports whether basis node xi (in tree fromTree: 0 =
// source, 1 = target) is optional relative to the compared ancestor.
func (m *matcher) isOptionalBasis(fromTree, xi int, anchor *schematree.Node) bool {
	var n *schematree.Node
	if fromTree == 0 {
		n = m.ts.Nodes[xi]
	} else {
		n = m.tt.Nodes[xi]
	}
	return n.IsLeaf() && n.OptionalRelativeTo(anchor)
}

// adjustLeaves multiplies the structural similarity of every leaf pair
// under (s,t) by factor, clamped to [0,1], one source leaf's ssim row at a
// time. The touched leaves matter only to the lazy memo's invalidation, so
// they are recorded only when the memo is on.
func (m *matcher) adjustLeaves(s, t *schematree.Node, factor float64) {
	ls, lt := m.ts.Leaves(s), m.tt.Leaves(t)
	for _, xi := range ls {
		row := m.res.SSim.Row(xi)
		for _, yi := range lt {
			v := row[yi] * factor
			if v > 1 {
				v = 1
			}
			row[yi] = v
		}
	}
	if m.memo != nil {
		for _, xi := range ls {
			m.touchedS[xi] = true
		}
		for _, yi := range lt {
			m.touchedT[yi] = true
		}
	}
}

// --- lazy-expansion memoization (§8.4) --------------------------------
//
// Context copies created by type substitution or join views duplicate
// subtrees; comparing two such duplicates repeats the exact computation as
// long as none of the involved leaves has been touched by an
// increase/decrease step (the paper's argument for lazy expansion: at
// first comparison, similarity depends only on the subtrees). The memo key
// is the canonical identity of the basis leaves — a copy's leaf
// canonicalizes to the first materialized node of the same element — so
// ssim(ShipTo, BillTo') is computed once no matter how many contexts the
// shared type was expanded into. This assumes node-level lsim is
// context-independent, which holds for Cupid: lsim is computed per schema
// element and inherited by every context copy.

func canonical(tr *schematree.Tree, idx int) int {
	n := tr.Nodes[idx]
	if n.CopyOf != nil {
		return n.CopyOf.Idx
	}
	return idx
}

// sig builds the canonical signature of a basis set within one tree.
func sig(tr *schematree.Tree, basis []int) string {
	b := make([]byte, 0, 4*len(basis))
	for _, i := range basis {
		c := canonical(tr, i)
		b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	}
	return string(b)
}

func (m *matcher) untouched(fromTree int, basis []int) bool {
	touched := m.touchedS
	if fromTree == 1 {
		touched = m.touchedT
	}
	for _, i := range basis {
		if touched[i] {
			return false
		}
	}
	return true
}

func (m *matcher) memoLookup(s, t *schematree.Node, ls, lt []int) (float64, bool) {
	if !m.untouched(0, ls) || !m.untouched(1, lt) {
		return 0, false
	}
	v, ok := m.memo[[2]string{sig(m.ts, ls), sig(m.tt, lt)}]
	return v, ok
}

func (m *matcher) memoStore(s, t *schematree.Node, ls, lt []int, v float64) {
	if m.untouched(0, ls) && m.untouched(1, lt) {
		m.memo[[2]string{sig(m.ts, ls), sig(m.tt, lt)}] = v
	}
}

// SecondPass re-computes the structural and weighted similarity of
// non-leaf pairs — pairs that include a non-leaf — from the final leaf
// similarities (paper §7: the updating of leaf similarities during tree
// match may affect the structural similarity of non-leaf nodes after they
// were first calculated). No increase/decrease steps run during the second
// pass. The pairs are visited in the sweep's post-order, since under the
// frontier and children bases a pair reads the ssim of non-leaf pairs
// recomputed before it; a leaf source visits only the target's
// non-leaves. SecondPass allocates its working memory; Scratch.SecondPass
// reuses it.
func SecondPass(res *Result, ts, tt *schematree.Tree, lsim matrix.Matrix, p Params) {
	new(Scratch).SecondPass(res, ts, tt, lsim, p)
}

// SecondPass is the package-level SecondPass with its working memory drawn
// from sc.
func (sc *Scratch) SecondPass(res *Result, ts, tt *schematree.Tree, lsim matrix.Matrix, p Params) {
	m := sc.start(res, ts, tt, lsim, p)
	defer sc.release()
	nonLeaves := tt.NonLeaves()
	for _, s := range ts.Nodes {
		if !s.IsLeaf() {
			for _, t := range tt.Nodes {
				m.recompute(s, t)
			}
			continue
		}
		for _, ti := range nonLeaves {
			m.recompute(s, tt.Nodes[ti])
		}
	}
}

// recompute is SecondPass's visit of one pair that includes a non-leaf:
// unless leaf-count pruning skips it, its ssim and wsim are recomputed.
func (m *matcher) recompute(s, t *schematree.Node) {
	ls, lt := m.frontS[s.Idx], m.frontT[t.Idx]
	if m.pruned(ls, lt) {
		return
	}
	ssim := m.structuralSim(s, t, ls, lt)
	m.res.SSim.Set(s.Idx, t.Idx, ssim)
	m.res.WSim.Set(s.Idx, t.Idx, m.p.WStruct*ssim+(1-m.p.WStruct)*m.lsim.At(s.Idx, t.Idx))
}
