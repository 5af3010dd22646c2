package structural_test

// A deliberately naive transcription of Figure 3 (TreeMatch) and the §7
// second pass, checked bit-identical to the package's kernel over
// randomized pairs under every §8.4 toggle. The oracle keeps nested
// [][]float64 tables, allocates freely, runs every phase sequentially and
// scans the strong-link relation the way the paper states it: each basis
// node of one subtree looks for a strong link among the basis nodes of the
// other (a column walk for the target side). It never uses a memoized
// value: under LazyMemo it only counts the lookups the memo would answer,
// so a memo that served a value differing from the direct computation
// fails here.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/schematree"
	"repro/internal/structural"
	"repro/internal/structural/oraclepairs"
)

type oracle struct {
	ts, tt     *schematree.Tree
	lsim       matrix.Matrix
	p          structural.Params
	ssim, wsim [][]float64
	stats      [4]int // Comparisons, Pruned, MemoHits, Shortcuts

	touchedS, touchedT []bool
	memo               map[string]bool // keys the lazy memo would hold; nil when off
}

func newOracle(ts, tt *schematree.Tree, lsim matrix.Matrix, p structural.Params) *oracle {
	o := &oracle{ts: ts, tt: tt, lsim: lsim, p: p,
		touchedS: make([]bool, ts.Len()), touchedT: make([]bool, tt.Len())}
	o.ssim = make([][]float64, ts.Len())
	o.wsim = make([][]float64, ts.Len())
	for i := range o.ssim {
		o.ssim[i] = make([]float64, tt.Len())
		o.wsim[i] = make([]float64, tt.Len())
	}
	return o
}

// leavesOf collects the leaves under n in post-order (ascending index).
func leavesOf(n *schematree.Node) []int {
	if n.IsLeaf() {
		return []int{n.Idx}
	}
	var out []int
	for _, c := range n.Children {
		out = append(out, leavesOf(c)...)
	}
	return out
}

// basisOf is the descendant set driving ssim: the node itself for a leaf,
// else its children (ablation), its depth-k frontier, or its leaves.
func (o *oracle) basisOf(n *schematree.Node) []int {
	switch {
	case n.IsLeaf():
		return []int{n.Idx}
	case o.p.StructuralBasis == structural.BasisChildren:
		var out []int
		for _, c := range n.Children {
			out = append(out, c.Idx)
		}
		return out
	case o.p.FrontierDepth > 0:
		var out []int
		var walk func(x *schematree.Node)
		walk = func(x *schematree.Node) {
			if x.IsLeaf() || x.Depth-n.Depth >= o.p.FrontierDepth {
				out = append(out, x.Idx)
				return
			}
			for _, c := range x.Children {
				walk(c)
			}
		}
		walk(n)
		sort.Ints(out)
		return out
	}
	return leavesOf(n)
}

func (o *oracle) strong(x, y int) bool {
	w := o.p.WStructLeaf
	return w*o.ssim[x][y]+(1-w)*o.lsim.At(x, y) >= o.p.ThAccept
}

func (o *oracle) pruned(ls, lt []int) bool {
	if !o.p.LeafCountPruning {
		return false
	}
	a, b := len(ls), len(lt)
	if a > b {
		a, b = b, a
	}
	return float64(b) > o.p.LeafCountRatio*float64(a)
}

// treeMatch is Figure 3: leaf initialization from the compatibility table,
// the post-order sweep with increase/decrease, then the leaf wsim refresh.
func (o *oracle) treeMatch() {
	lazy := o.p.LazyMemo && o.p.StructuralBasis == structural.BasisLeaves && o.p.FrontierDepth == 0
	if lazy {
		o.memo = map[string]bool{}
	}
	compat := o.p.Table()
	for _, x := range leavesOf(o.ts.Root) {
		for _, y := range leavesOf(o.tt.Root) {
			se, te := o.ts.Nodes[x].Elem, o.tt.Nodes[y].Elem
			v := compat.Lookup(se.Type, te.Type)
			if o.p.LeafCompat != nil {
				if hv, ok := o.p.LeafCompat(se, te); ok {
					v = hv
				}
			}
			o.ssim[x][y] = v
		}
	}
	for _, s := range o.ts.Nodes {
		for _, t := range o.tt.Nodes {
			o.compare(s, t)
		}
	}
	for _, x := range leavesOf(o.ts.Root) {
		for _, y := range leavesOf(o.tt.Root) {
			w := o.p.WStructLeaf
			o.wsim[x][y] = w*o.ssim[x][y] + (1-w)*o.lsim.At(x, y)
		}
	}
}

func (o *oracle) compare(s, t *schematree.Node) {
	both := s.IsLeaf() && t.IsLeaf()
	ls, lt := o.basisOf(s), o.basisOf(t)
	if !both && o.pruned(ls, lt) {
		o.stats[1]++
		o.wsim[s.Idx][t.Idx] = (1 - o.p.WStruct) * o.lsim.At(s.Idx, t.Idx)
		return
	}
	o.stats[0]++
	var ssim, w float64
	if both {
		ssim = o.ssim[s.Idx][t.Idx]
		w = o.p.WStructLeaf
	} else {
		ssim = o.structSim(s, t, ls, lt)
		o.ssim[s.Idx][t.Idx] = ssim
		w = o.p.WStruct
	}
	wsim := w*ssim + (1-w)*o.lsim.At(s.Idx, t.Idx)
	o.wsim[s.Idx][t.Idx] = wsim
	if both {
		return
	}
	factor := 1.0
	switch {
	case wsim > o.p.ThHigh:
		factor = o.p.CInc
	case wsim < o.p.ThLow:
		factor = o.p.CDec
	default:
		return
	}
	for _, x := range leavesOf(s) {
		for _, y := range leavesOf(t) {
			v := o.ssim[x][y] * factor
			if v > 1 {
				v = 1
			}
			o.ssim[x][y] = v
			o.touchedS[x] = true
			o.touchedT[y] = true
		}
	}
}

// memoKey is the lazy memo's identity of a basis pair: the canonical
// (copy-resolved) node of every basis leaf, or "" when a leaf of either
// side has been touched and the memo may not be consulted.
func (o *oracle) memoKey(ls, lt []int) string {
	var b strings.Builder
	for side, basis := range [][]int{ls, lt} {
		tr, touched := o.ts, o.touchedS
		if side == 1 {
			tr, touched = o.tt, o.touchedT
		}
		for _, i := range basis {
			if touched[i] {
				return ""
			}
			n := tr.Nodes[i]
			if n.CopyOf != nil {
				n = n.CopyOf
			}
			fmt.Fprintf(&b, "%d,", n.Idx)
		}
		b.WriteString("|")
	}
	return b.String()
}

// structSim is the fraction of basis nodes on both sides with a strong
// link into the other side, optional unlinked leaves discounted.
func (o *oracle) structSim(s, t *schematree.Node, ls, lt []int) float64 {
	key := ""
	if o.memo != nil {
		key = o.memoKey(ls, lt)
		if key != "" && o.memo[key] {
			o.stats[2]++
			return o.direct(s, t, ls, lt)
		}
	}
	if o.p.ChildrenShortcut && !s.IsLeaf() && !t.IsLeaf() {
		if v, ok := o.childrenShortcut(s, t); ok {
			o.stats[3]++
			return v
		}
	}
	if key != "" {
		o.memo[key] = true
	}
	return o.direct(s, t, ls, lt)
}

func (o *oracle) direct(s, t *schematree.Node, ls, lt []int) float64 {
	linked, total := 0, 0
	for _, x := range ls { // source rows
		has := false
		for _, y := range lt {
			if o.strong(x, y) {
				has = true
				break
			}
		}
		switch {
		case has:
			linked++
			total++
		case o.p.OptionalDiscount && o.ts.Nodes[x].IsLeaf() && o.ts.Nodes[x].OptionalRelativeTo(s):
		default:
			total++
		}
	}
	for _, y := range lt { // target columns
		has := false
		for _, x := range ls {
			if o.strong(x, y) {
				has = true
				break
			}
		}
		switch {
		case has:
			linked++
			total++
		case o.p.OptionalDiscount && o.tt.Nodes[y].IsLeaf() && o.tt.Nodes[y].OptionalRelativeTo(t):
		default:
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(linked) / float64(total)
}

func (o *oracle) childrenShortcut(s, t *schematree.Node) (float64, bool) {
	th := o.p.ShortcutThreshold
	if th == 0 {
		th = 0.95
	}
	total := len(s.Children) + len(t.Children)
	linked := 0
	for _, cs := range s.Children {
		for _, ct := range t.Children {
			if o.wsim[cs.Idx][ct.Idx] >= o.p.ThAccept {
				linked++
				break
			}
		}
	}
	for _, ct := range t.Children {
		for _, cs := range s.Children {
			if o.wsim[cs.Idx][ct.Idx] >= o.p.ThAccept {
				linked++
				break
			}
		}
	}
	if v := float64(linked) / float64(total); v >= th {
		return v, true
	}
	return 0, false
}

// secondPass is §7: every non-leaf pair's ssim and wsim recomputed from the
// final leaf similarities, with no increase/decrease and no memo.
func (o *oracle) secondPass() {
	o.memo = nil
	clear(o.touchedS)
	clear(o.touchedT)
	for _, s := range o.ts.Nodes {
		for _, t := range o.tt.Nodes {
			if s.IsLeaf() && t.IsLeaf() {
				continue
			}
			ls, lt := o.basisOf(s), o.basisOf(t)
			if o.pruned(ls, lt) {
				continue
			}
			ssim := o.structSim(s, t, ls, lt)
			o.ssim[s.Idx][t.Idx] = ssim
			o.wsim[s.Idx][t.Idx] = o.p.WStruct*ssim + (1-o.p.WStruct)*o.lsim.At(s.Idx, t.Idx)
		}
	}
}

// oracleParams is every combination of the §8.4 toggles.
func oracleParams() []structural.Params {
	var out []structural.Params
	for mask := 0; mask < 1<<5; mask++ {
		for _, depth := range []int{0, 1, 2} {
			p := structural.DefaultParams()
			p.LeafCountPruning = mask&1 != 0
			p.OptionalDiscount = mask&2 != 0
			p.LazyMemo = mask&4 != 0
			p.ChildrenShortcut = mask&8 != 0
			if p.ChildrenShortcut && depth == 1 {
				p.ShortcutThreshold = 0.5 // fires far more often than 0.95
			}
			if mask&16 != 0 {
				p.StructuralBasis = structural.BasisChildren
			}
			p.FrontierDepth = depth
			out = append(out, p)
		}
	}
	return out
}

func statsOf(r *structural.Result) [4]int {
	return [4]int{r.Comparisons, r.Pruned, r.MemoHits, r.Shortcuts}
}

// TestTreeMatchMatchesNaiveOracle: TreeMatch and SecondPass, allocating
// and through one reused Scratch, equal the naive transcription bit for
// bit — ssim, wsim and every statistic — on every pair under every toggle
// combination, and on a pair of the pair-large shape under the default
// parameters with the children shortcut and the lazy memo toggled. The
// run must exercise pruning, memo hits and shortcuts, so a toggle that
// silently stopped firing is caught too.
func TestTreeMatchMatchesNaiveOracle(t *testing.T) {
	pairs, err := oraclepairs.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	var total [4]int
	var sc structural.Scratch
	var reused structural.Result
	check := func(pr oraclepairs.Pair, label string, p structural.Params) {
		o := newOracle(pr.TS, pr.TT, pr.LSim, p)
		o.treeMatch()
		got := structural.TreeMatch(pr.TS, pr.TT, pr.LSim, p)
		sc.TreeMatch(&reused, pr.TS, pr.TT, pr.LSim, p)
		for _, r := range []*structural.Result{got, &reused} {
			if !r.SSim.Equal(matrix.FromRows(o.ssim)) || !r.WSim.Equal(matrix.FromRows(o.wsim)) {
				t.Fatalf("%s: TreeMatch matrices differ from the naive oracle", label)
			}
			if statsOf(r) != o.stats {
				t.Fatalf("%s: TreeMatch stats %v, oracle %v", label, statsOf(r), o.stats)
			}
		}
		for i := range total {
			total[i] += o.stats[i]
		}
		o.secondPass()
		structural.SecondPass(got, pr.TS, pr.TT, pr.LSim, p)
		sc.SecondPass(&reused, pr.TS, pr.TT, pr.LSim, p)
		for _, r := range []*structural.Result{got, &reused} {
			if !r.SSim.Equal(matrix.FromRows(o.ssim)) || !r.WSim.Equal(matrix.FromRows(o.wsim)) {
				t.Fatalf("%s: SecondPass matrices differ from the naive oracle", label)
			}
			if statsOf(r) != o.stats {
				t.Fatalf("%s: SecondPass stats %v, oracle %v", label, statsOf(r), o.stats)
			}
		}
	}
	for _, pr := range pairs {
		for k, p := range oracleParams() {
			check(pr, fmt.Sprintf("%s, params %d", pr.Name, k), p)
		}
	}
	large, err := oraclepairs.PairLarge()
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 4; mask++ {
		p := structural.DefaultParams()
		p.ChildrenShortcut = mask&1 != 0
		p.LazyMemo = mask&2 != 0
		check(large, fmt.Sprintf("%s, shortcut %t, memo %t", large.Name, p.ChildrenShortcut, p.LazyMemo), p)
	}
	for i, name := range []string{"comparisons", "pruned pairs", "memo hits", "shortcuts"} {
		if total[i] == 0 {
			t.Errorf("no %s across the whole run: the toggles are not exercised", name)
		}
	}
}
