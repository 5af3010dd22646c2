// Package mapping implements Cupid's mapping generation (paper §7): from
// the computed linguistic and structural similarities, it produces the set
// of mapping elements (correspondences) between schema-tree nodes.
//
// The naive scheme is leaf-level and 1:n — for each leaf in the target
// schema, the source leaf with the highest weighted similarity is returned
// if it is acceptable (wsim >= thaccept); a source leaf may map to many
// target leaves. The paper notes that downstream tools (e.g. query
// discovery) may need 1:1 mappings instead, so a greedy 1:1 generator is
// provided as well. Non-leaf mappings require the similarities to have
// been re-computed by a second post-order traversal (structural.SecondPass)
// before generation.
package mapping

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/matrix"
	"repro/internal/schematree"
	"repro/internal/structural"
)

// Cardinality selects the mapping generator's output discipline.
type Cardinality int

const (
	// OneToN is the paper's naive scheme: best acceptable source per
	// target; sources may repeat.
	OneToN Cardinality = iota
	// OneToOne restricts each source and target node to at most one
	// mapping element, chosen greedily by descending similarity.
	OneToOne
)

// Element is one mapping element: a correspondence between a source and a
// target schema-tree node, annotated with the similarities that produced
// it. Mappings are non-directional (the paper treats them so); source and
// target only name the two input schemas.
type Element struct {
	Source *schematree.Node
	Target *schematree.Node
	WSim   float64
	SSim   float64
	LSim   float64
}

// String renders "sourcePath <-> targetPath (wsim)".
func (e Element) String() string {
	return fmt.Sprintf("%s <-> %s (%.3f)", e.Source.Path(), e.Target.Path(), e.WSim)
}

// Mapping is the result of the Match operation: a set of mapping elements.
type Mapping struct {
	SourceSchema string
	TargetSchema string
	// Leaves holds the leaf-level mapping elements, ordered by target
	// post-order index.
	Leaves []Element
	// NonLeaves holds mapping elements between non-leaf nodes (present
	// when requested), ordered by target post-order index.
	NonLeaves []Element
}

// All returns leaf and non-leaf elements together.
func (m *Mapping) All() []Element {
	out := make([]Element, 0, len(m.Leaves)+len(m.NonLeaves))
	out = append(out, m.Leaves...)
	out = append(out, m.NonLeaves...)
	return out
}

// HasPair reports whether the mapping contains a correspondence between
// the given source and target paths (leaf or non-leaf).
func (m *Mapping) HasPair(sourcePath, targetPath string) bool {
	for _, e := range m.All() {
		if e.Source.Path() == sourcePath && e.Target.Path() == targetPath {
			return true
		}
	}
	return false
}

// String renders the mapping as a readable table.
func (m *Mapping) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mapping %s -> %s (%d leaf, %d non-leaf)\n",
		m.SourceSchema, m.TargetSchema, len(m.Leaves), len(m.NonLeaves))
	for _, e := range m.NonLeaves {
		fmt.Fprintf(&b, "  [struct] %s\n", e)
	}
	for _, e := range m.Leaves {
		fmt.Fprintf(&b, "  [leaf]   %s\n", e)
	}
	return b.String()
}

// Options controls generation.
type Options struct {
	// ThAccept is the acceptance threshold on wsim (Table 1: 0.5).
	ThAccept float64
	// Cardinality selects 1:n (paper default) or 1:1 output.
	Cardinality Cardinality
	// NonLeaves also emits mappings between non-leaf nodes. The caller
	// must have run structural.SecondPass first so non-leaf similarities
	// reflect the final leaf similarities.
	NonLeaves bool
	// IncludeJoinViews keeps mapping elements whose source or target is a
	// synthetic join-view node (on by default in the core facade; they are
	// how referential-constraint matches such as Orders⋈OrderDetails→Sales
	// surface).
	IncludeJoinViews bool
}

// DefaultOptions returns the paper's naive generator configuration.
func DefaultOptions() Options {
	return Options{ThAccept: 0.5, Cardinality: OneToN, NonLeaves: true, IncludeJoinViews: true}
}

// Generate produces a mapping from TreeMatch results.
func Generate(ts, tt *schematree.Tree, res *structural.Result, lsim matrix.Matrix, opt Options) *Mapping {
	m := &Mapping{SourceSchema: ts.Schema.Name, TargetSchema: tt.Schema.Name}
	switch opt.Cardinality {
	case OneToOne:
		m.Leaves = generateOneToOne(ts, tt, res, lsim, opt, true)
		if opt.NonLeaves {
			m.NonLeaves = generateOneToOne(ts, tt, res, lsim, opt, false)
		}
	default:
		m.Leaves = generateOneToN(ts, tt, res, lsim, opt, true)
		if opt.NonLeaves {
			m.NonLeaves = generateOneToN(ts, tt, res, lsim, opt, false)
		}
	}
	return m
}

// eligibleIdx returns the post-order indexes, ascending, of tr's nodes
// that generation may map: its leaves or its non-leaves, as the tree
// records them, without join-view nodes unless IncludeJoinViews is set.
// Only that filtering allocates.
func eligibleIdx(tr *schematree.Tree, leaves bool, opt Options) []int {
	idx := tr.NonLeaves()
	if leaves {
		idx = tr.Leaves(tr.Root)
	}
	if opt.IncludeJoinViews {
		return idx
	}
	out := make([]int, 0, len(idx))
	for _, i := range idx {
		if mappable(tr.Nodes[i], opt) {
			out = append(out, i)
		}
	}
	return out
}

// mappable reports whether opt lets generation map node n: any node when
// IncludeJoinViews is set, else only nodes that are not join views.
func mappable(n *schematree.Node, opt Options) bool {
	return opt.IncludeJoinViews || !n.IsJoinView
}

// parentWSim is the context tie-break key for leaf generation: the
// weighted similarity of the two nodes' parents. When several source
// leaves tie on wsim (common for context copies of one shared type), the
// one whose parent matches the target's parent best wins — the
// context-dependent choice. Non-leaf generation does not use it: container
// similarities against the root are inflated by construction.
func parentWSim(res *structural.Result, s, t *schematree.Node) float64 {
	if s.Parent == nil || t.Parent == nil {
		return 0
	}
	return res.WSim.At(s.Parent.Idx, t.Parent.Idx)
}

// bestElsewhere precomputes, per eligible source node, its best and
// second-best wsim over eligible targets plus the argmax target. Used as a
// margin tie-break: among sources tied for a target, the one whose best
// alternative is weakest "needs" the target most (e.g. Figure 2's Line and
// Qty tie for ItemNumber structurally, but Qty already has Quantity at a
// much higher wsim, so Line takes ItemNumber). The tie-break is
// declaration-order independent.
type bestElsewhere struct {
	max    []float64
	second []float64
	argmax []int
}

func computeBestElsewhere(ts *schematree.Tree, res *structural.Result, srcs, tgts []int) bestElsewhere {
	be := bestElsewhere{
		max:    make([]float64, ts.Len()),
		second: make([]float64, ts.Len()),
		argmax: make([]int, ts.Len()),
	}
	for i := range be.argmax {
		be.argmax[i] = -1
	}
	for _, si := range srcs {
		row := res.WSim.Row(si)
		for _, ti := range tgts {
			w := row[ti]
			switch {
			case w > be.max[si]:
				be.second[si] = be.max[si]
				be.max[si] = w
				be.argmax[si] = ti
			case w > be.second[si]:
				be.second[si] = w
			}
		}
	}
	return be
}

// other returns the source's best wsim over targets other than t.
func (be bestElsewhere) other(s, t int) float64 {
	if be.argmax[s] == t {
		return be.second[s]
	}
	return be.max[s]
}

// generateOneToN implements the paper's naive scheme: for each target node
// the best acceptable source node (ties broken by parent context, then by
// the margin rule, then post-order index). It walks wsim row by row over
// the eligible sources, keeping a running best per eligible target: each
// target still meets its sources in ascending post-order, so every
// tie-break resolves as in a column scan.
func generateOneToN(ts, tt *schematree.Tree, res *structural.Result, lsim matrix.Matrix, opt Options, leaves bool) []Element {
	srcs, tgts := eligibleIdx(ts, leaves, opt), eligibleIdx(tt, leaves, opt)
	be := computeBestElsewhere(ts, res, srcs, tgts)
	type pick struct {
		s            int
		w, pw, other float64
	}
	picks := make([]pick, len(tgts))
	for k := range picks {
		picks[k].s = -1
	}
	for _, si := range srcs {
		row := res.WSim.Row(si)
		for k, ti := range tgts {
			w := row[ti]
			if w < opt.ThAccept {
				continue
			}
			pw := 0.0
			if leaves {
				pw = parentWSim(res, ts.Nodes[si], tt.Nodes[ti])
			}
			other := be.other(si, ti)
			if b := &picks[k]; w > b.w ||
				(w == b.w && pw > b.pw) ||
				(w == b.w && pw == b.pw && b.s >= 0 && other < b.other) {
				*b = pick{si, w, pw, other}
			}
		}
	}
	var out []Element
	for k, ti := range tgts {
		if b := picks[k]; b.s >= 0 {
			out = append(out, Element{
				Source: ts.Nodes[b.s],
				Target: tt.Nodes[ti],
				WSim:   b.w,
				SSim:   res.SSim.At(b.s, ti),
				LSim:   lsim.At(b.s, ti),
			})
		}
	}
	return out
}

// LeafWSimSum returns the sum of the wsim values of the leaf elements that
// Generate emits under OneToN cardinality, added in target post-order (the
// order of Mapping.Leaves), without building the mapping. For each eligible
// target leaf the naive scheme's pick has the largest acceptable wsim —
// the tie-breaks only choose among sources of equal wsim — so the sum needs
// only the per-target maximum, taken target by target over the source
// leaves: no working memory at all. It reads the leaf cells of wsim only,
// which structural.SecondPass never changes.
func LeafWSimSum(ts, tt *schematree.Tree, wsim matrix.Matrix, opt Options) float64 {
	srcLeaves := ts.Leaves(ts.Root)
	sum := 0.0
	for _, ti := range tt.Leaves(tt.Root) {
		if !mappable(tt.Nodes[ti], opt) {
			continue
		}
		best := -1.0 // below every acceptable wsim (ThAccept >= 0)
		for _, si := range srcLeaves {
			if w := wsim.At(si, ti); w >= opt.ThAccept && w > best && mappable(ts.Nodes[si], opt) {
				best = w
			}
		}
		if best >= 0 {
			sum += best
		}
	}
	return sum
}

// generateOneToOne greedily picks the globally best acceptable pairs,
// consuming each source and target at most once. Ties break on post-order
// indexes for determinism.
func generateOneToOne(ts, tt *schematree.Tree, res *structural.Result, lsim matrix.Matrix, opt Options, leaves bool) []Element {
	srcs, tgts := eligibleIdx(ts, leaves, opt), eligibleIdx(tt, leaves, opt)
	be := computeBestElsewhere(ts, res, srcs, tgts)
	type cand struct {
		s, t  int
		w     float64
		pw    float64
		other float64
	}
	var cands []cand
	for _, si := range srcs {
		row := res.WSim.Row(si)
		for _, ti := range tgts {
			if w := row[ti]; w >= opt.ThAccept {
				pw := 0.0
				if leaves {
					pw = parentWSim(res, ts.Nodes[si], tt.Nodes[ti])
				}
				cands = append(cands, cand{si, ti, w, pw, be.other(si, ti)})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		if cands[i].pw != cands[j].pw {
			return cands[i].pw > cands[j].pw
		}
		if cands[i].other != cands[j].other {
			return cands[i].other < cands[j].other // margin rule
		}
		if cands[i].t != cands[j].t {
			return cands[i].t < cands[j].t
		}
		return cands[i].s < cands[j].s
	})
	usedS := map[int]bool{}
	usedT := map[int]bool{}
	var out []Element
	for _, c := range cands {
		if usedS[c.s] || usedT[c.t] {
			continue
		}
		usedS[c.s] = true
		usedT[c.t] = true
		out = append(out, Element{
			Source: ts.Nodes[c.s],
			Target: tt.Nodes[c.t],
			WSim:   c.w,
			SSim:   res.SSim.At(c.s, c.t),
			LSim:   lsim.At(c.s, c.t),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target.Idx < out[j].Target.Idx })
	return out
}
