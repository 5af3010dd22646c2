// Package structural implements Cupid's TreeMatch algorithm (paper §6 and
// Figure 3): structural similarity of schema-tree nodes based on the
// fraction of leaves in their subtrees that have strong links, with mutual
// reinforcement — highly similar ancestors increase the structural
// similarity of their subtree leaves, dissimilar ones decrease it.
package structural

import (
	"fmt"

	"repro/internal/model"
)

// Basis selects which descendant set drives structural similarity.
type Basis int

const (
	// BasisLeaves uses the leaf sets of the compared subtrees (the paper's
	// choice: leaves represent the atomic data the schema describes, so
	// schemas with different nesting but the same content still match).
	BasisLeaves Basis = iota
	// BasisChildren uses immediate children instead — the alternative the
	// paper discusses and rejects; kept for the ablation experiments.
	BasisChildren
)

// Params collects the thresholds and factors of Table 1 plus the §8.4
// feature toggles.
type Params struct {
	// ThHigh: if wsim(s,t) >= ThHigh, increase the structural similarity
	// of all leaf pairs under s and t. Should exceed ThAccept. (0.6)
	ThHigh float64
	// ThLow: if wsim(s,t) < ThLow, decrease the structural similarity of
	// all leaf pairs under s and t. Should be below ThAccept (Table 1
	// lists 0.35; the default here is 0.30 so that merely-unrelated
	// sibling pairs — whose wsim hovers around (1-wstruct)·0 + wstruct·0.5
	// — do not decay genuine pure-structural leaf matches).
	ThLow float64
	// CInc is the multiplicative increase factor, typically a function of
	// maximum schema depth (Table 1 lists 1.2 for shallow schemas; the
	// default here is 1.25, tuned for the paper's 4-level purchase
	// orders).
	CInc float64
	// CDec is the multiplicative decrease factor, typically about
	// 1/CInc. (0.9)
	CDec float64
	// ThAccept: wsim(s,t) >= ThAccept for s,t to have a strong link or be
	// a valid mapping element. (0.5)
	ThAccept float64
	// WStructLeaf is the structural contribution to wsim for leaf-leaf
	// pairs; the paper uses a lower value for leaves than non-leaves
	// (Table 1 lists 0.5; the default here is 0.58 because at 0.5 a
	// pure-structural leaf match with no linguistic evidence tops out at
	// wsim = 0.5·ssim ≤ 0.5, i.e. exactly ThAccept even when fully
	// boosted — a knife-edge the §9.2 relational workloads' renamed
	// columns sit on. 0.58 gives such matches clear headroom over
	// ThAccept while leaving name evidence dominant.)
	WStructLeaf float64
	// WStruct is the structural contribution for pairs involving a
	// non-leaf. (0.6)
	WStruct float64
	// LeafCountPruning enables the factor-of-LeafCountRatio rule: only
	// compare elements whose subtree leaf counts are within the ratio.
	LeafCountPruning bool
	// LeafCountRatio is the allowed leaf-count ratio ("say within a factor
	// of 2"); subtrees whose leaf counts differ by more than the ratio are
	// not compared. The default is 2.5: a join view of two tables runs
	// slightly past 2x the leaf count of the denormalized table it should
	// match (Orders ⋈ OrderDetails vs Sales in the §9.2 experiment).
	LeafCountRatio float64
	// OptionalDiscount enables §8.4 optionality: optional leaves with no
	// strong link are dropped from both numerator and denominator of ssim.
	OptionalDiscount bool
	// FrontierDepth prunes leaves (§8.4): only the depth-k frontier below
	// each compared node is considered. 0 disables pruning.
	FrontierDepth int
	// StructuralBasis selects leaves (paper) or immediate children
	// (ablation).
	StructuralBasis Basis
	// LazyMemo enables the lazy-expansion optimization (§8.4): the initial
	// structural similarity of duplicated (context-copy) subtree pairs is
	// computed once and reused while their leaves are untouched. Results
	// are identical with or without it.
	LazyMemo bool
	// ChildrenShortcut enables the §8.4 fast path for nearly identical
	// schemas: the immediate children of two non-leaf nodes are compared
	// first, and if a very good match is detected (linked fraction at or
	// above ShortcutThreshold) the leaf-level similarity computation is
	// skipped and the children-based value used. An approximation; off by
	// default.
	ChildrenShortcut bool
	// ShortcutThreshold is the children-linked fraction that counts as a
	// "very good match" (default 0.95 via DefaultParams when the shortcut
	// is enabled; 0 means 0.95).
	ShortcutThreshold float64
	// Compat is the data-type compatibility table used to initialize leaf
	// structural similarity; nil means DefaultCompat.
	Compat *CompatTable
	// LeafCompat, when non-nil, can override the compatibility-table
	// initialization of a leaf pair: it receives the two leaf elements and
	// returns (value, true) to supply the initial ssim (expected in
	// [0, 0.5], like table entries) or (_, false) to fall back to the
	// table. The core package installs an instance-profile blend here when
	// both schemas carry sampled instance data. The hook is keyed on
	// elements, not tree nodes, so every context copy of an element sees
	// the same value — which preserves the lazy-memo copy-invariance
	// argument. nil (the default) is exactly the table-only behavior.
	LeafCompat func(s, t *model.Element) (float64, bool)
}

// DefaultParams returns the typical values of Table 1.
func DefaultParams() Params {
	return Params{
		ThHigh:           0.6,
		ThLow:            0.30,
		CInc:             1.25,
		CDec:             0.9,
		ThAccept:         0.5,
		WStructLeaf:      0.58,
		WStruct:          0.6,
		LeafCountPruning: true,
		LeafCountRatio:   2.5,
		OptionalDiscount: true,
		StructuralBasis:  BasisLeaves,
	}
}

// Validate reports inconsistent parameters: the Table 1 notes require
// ThLow < ThAccept < ThHigh (as "should be" constraints), factors must be
// positive with CInc >= 1 >= CDec, and weights must lie in [0,1].
func (p Params) Validate() error {
	if !(p.ThLow < p.ThAccept && p.ThAccept < p.ThHigh) {
		return fmt.Errorf("structural: need thlow < thaccept < thhigh, got %.2f/%.2f/%.2f",
			p.ThLow, p.ThAccept, p.ThHigh)
	}
	if p.CInc < 1 {
		return fmt.Errorf("structural: cinc %.2f < 1", p.CInc)
	}
	if p.CDec <= 0 || p.CDec > 1 {
		return fmt.Errorf("structural: cdec %.2f out of (0,1]", p.CDec)
	}
	for _, w := range []float64{p.WStructLeaf, p.WStruct, p.ThAccept, p.ThHigh, p.ThLow} {
		if w < 0 || w > 1 {
			return fmt.Errorf("structural: weight/threshold %.2f out of [0,1]", w)
		}
	}
	if p.LeafCountPruning && p.LeafCountRatio < 1 {
		return fmt.Errorf("structural: leaf-count ratio %.2f < 1", p.LeafCountRatio)
	}
	if p.FrontierDepth < 0 {
		return fmt.Errorf("structural: frontier depth %d < 0", p.FrontierDepth)
	}
	return nil
}

// CompatTable is the data-type compatibility lookup used to initialize the
// structural similarity of leaf pairs; entries lie in [0, 0.5], identical
// types score the maximum 0.5 (leaving room for later increases — paper
// §6). The table is symmetric.
type CompatTable [model.NumDataTypes][model.NumDataTypes]float64

// Lookup returns the compatibility of two broad data types.
func (c *CompatTable) Lookup(a, b model.DataType) float64 {
	return c[a][b]
}

// Set sets the compatibility of a type pair symmetrically, clamped to
// [0, 0.5].
func (c *CompatTable) Set(a, b model.DataType, v float64) {
	if v < 0 {
		v = 0
	}
	if v > 0.5 {
		v = 0.5
	}
	c[a][b] = v
	c[b][a] = v
}

// defaultCompat is the read-only default table behind Params.Table, built
// once instead of on every match.
var defaultCompat = DefaultCompat()

// Table returns the compatibility table a match runs with: Compat, or the
// shared default when it is nil. The shared table is read-only — callers
// that want to Set entries start from their own DefaultCompat copy.
func (p Params) Table() *CompatTable {
	if p.Compat != nil {
		return p.Compat
	}
	return defaultCompat
}

// DefaultCompat builds a fresh copy of the default compatibility table:
// 0.5 on the diagonal; 0.45 within the numeric and temporal families;
// strings are weakly compatible with everything (0.3) since text can
// encode any value; untyped and "any" elements are treated like strings;
// identifiers pair with each other; everything else defaults to 0.1.
func DefaultCompat() *CompatTable {
	var c CompatTable
	for a := model.DataType(0); a < model.NumDataTypes; a++ {
		for b := model.DataType(0); b < model.NumDataTypes; b++ {
			c[a][b] = 0.1
		}
	}
	for a := model.DataType(0); a < model.NumDataTypes; a++ {
		c.Set(a, a, 0.5)
		for _, wild := range []model.DataType{model.DTString, model.DTNone, model.DTAny} {
			if a != wild {
				c.Set(a, wild, 0.3)
			}
		}
	}
	nums := []model.DataType{model.DTInt, model.DTFloat, model.DTDecimal}
	for _, a := range nums {
		for _, b := range nums {
			if a != b {
				c.Set(a, b, 0.45)
			}
		}
	}
	times := []model.DataType{model.DTDate, model.DTTime, model.DTDateTime}
	for _, a := range times {
		for _, b := range times {
			if a != b {
				c.Set(a, b, 0.45)
			}
		}
	}
	c.Set(model.DTID, model.DTIDRef, 0.4)
	c.Set(model.DTEnum, model.DTString, 0.4)
	c.Set(model.DTBool, model.DTInt, 0.3)
	// Wildcards pair strongly with each other.
	c.Set(model.DTString, model.DTNone, 0.4)
	c.Set(model.DTString, model.DTAny, 0.4)
	c.Set(model.DTNone, model.DTAny, 0.4)
	return &c
}
