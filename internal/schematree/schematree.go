// Package schematree converts generic schema graphs (internal/model) into
// the schema trees on which Cupid's TreeMatch algorithm operates (paper
// §8.2–8.3).
//
// A schema graph may share substructure via IsDerivedFrom relationships; an
// element reachable over several paths must map differently in each
// context. Expansion materializes every containment/IsDerivedFrom path
// from the root — essentially type substitution — so each schema-tree node
// is one *context* of one schema element. Elements tagged not-instantiated
// (keys) are skipped. Construction fails on containment/IsDerivedFrom
// cycles (recursive types), which the paper defers to future work.
//
// Referential constraints are reified as join-view nodes: for each RefInt
// the tree gains a node, attached under the common ancestor of the
// participating tables, whose children are copies of both tables' members
// (paper Figure 6). View definitions are expanded the same way. Join views
// of join views are not expanded (the paper declines escalating expansion
// for tractability).
package schematree

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
)

// Node is one context of one schema element in the expanded schema tree.
type Node struct {
	// Elem is the underlying schema element. Several nodes may share an
	// element (one per context); join-view nodes point at their RefInt or
	// View element.
	Elem *model.Element
	// Parent and Children define the tree.
	Parent   *Node
	Children []*Node
	// Idx is the node's post-order index within the tree (leaves first,
	// root last). Assigned by Build.
	Idx int
	// SubFirst is the smallest post-order index inside this node's
	// subtree; the subtree occupies the contiguous range [SubFirst, Idx].
	SubFirst int
	// Depth is the distance from the root (root = 0).
	Depth int
	// IsJoinView marks synthetic join-view nodes.
	IsJoinView bool
	// CopyOf points at the first materialized node of the same element
	// whose subtree has identical shape (contexts duplicated by type
	// substitution or join views); nil for originals. Used by the lazy
	// expansion optimization.
	CopyOf *Node
	// optDepth is, for leaves, the depth of the deepest optional element
	// on the path from the root to this leaf (-1 when none): the leaf is
	// optional relative to ancestor a iff optDepth > a.Depth.
	optDepth int
	// leafLo and leafHi bound the subtree's leaves within Tree.leafIdx
	// (leafIdx[leafLo:leafHi]); recorded by Build.
	leafLo, leafHi int
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Name returns the display name: the element name, or the RefInt/View name
// for join views.
func (n *Node) Name() string { return n.Elem.Name }

// Path returns the context path of the node within the tree, e.g.
// "PurchaseOrder.DeliverTo.Address.Street". For context-dependent copies
// the path disambiguates which context the node stands for.
func (n *Node) Path() string {
	var parts []string
	for x := n; x != nil; x = x.Parent {
		if x.Elem.Name != "" {
			parts = append(parts, x.Elem.Name)
		}
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, ".")
}

// OptionalRelativeTo reports whether leaf l is optional relative to
// ancestor a (paper §8.4): at least one optional element lies on the path
// from a (exclusive) down to l (inclusive).
func (l *Node) OptionalRelativeTo(a *Node) bool {
	return l.optDepth > a.Depth
}

// Tree is an expanded schema tree.
type Tree struct {
	Schema *model.Schema
	Root   *Node
	// Nodes lists every node in post-order; Nodes[i].Idx == i.
	Nodes []*Node
	// leafIdx lists the post-order indexes of all leaves, ascending.
	leafIdx []int
	// nonLeafIdx lists the post-order indexes of all non-leaves, ascending.
	nonLeafIdx []int
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.Nodes) }

// NumLeaves returns the number of leaf nodes.
func (t *Tree) NumLeaves() int { return len(t.leafIdx) }

// Leaves returns the post-order indexes of the leaves in the subtree
// rooted at n, ascending; for a leaf, the one-element slice of its own
// index. Build records every subtree's range of the tree's leaf list, so
// this is a slice expression: O(1), allocation-free. The slice aliases
// internal storage; do not modify.
func (t *Tree) Leaves(n *Node) []int {
	return t.leafIdx[n.leafLo:n.leafHi:n.leafHi]
}

// NonLeaves returns the post-order indexes of every non-leaf node of the
// tree, ascending. Build records the list, so this allocates nothing. The
// slice aliases internal storage; do not modify.
func (t *Tree) NonLeaves() []int {
	return t.nonLeafIdx[:len(t.nonLeafIdx):len(t.nonLeafIdx)]
}

// LeafCount returns the number of leaves under n (n itself when a leaf).
func (t *Tree) LeafCount(n *Node) int { return len(t.Leaves(n)) }

// Frontier returns the post-order indexes of the depth-k frontier of n
// (paper §8.4, "Pruning leaves"): descendants that are leaves within k
// levels of n, plus non-leaf descendants at exactly depth n.Depth+k, which
// are treated as pseudo-leaves. k <= 0 means no pruning (all leaves).
func (t *Tree) Frontier(n *Node, k int) []int {
	if k <= 0 {
		return t.Leaves(n)
	}
	var out []int
	var walk func(x *Node)
	walk = func(x *Node) {
		if x.IsLeaf() || x.Depth-n.Depth >= k {
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

// NodeByPath returns the first node (in post-order) whose Path equals the
// given dotted path, or nil.
func (t *Tree) NodeByPath(path string) *Node {
	for _, n := range t.Nodes {
		if n.Path() == path {
			return n
		}
	}
	return nil
}

// NodesOfElement returns all context nodes of the given element, in
// post-order.
func (t *Tree) NodesOfElement(e *model.Element) []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.Elem == e {
			out = append(out, n)
		}
	}
	return out
}

// Options configures expansion.
type Options struct {
	// JoinViews reifies referential constraints as join-view nodes
	// (default true via DefaultOptions).
	JoinViews bool
	// Views expands view elements into nodes over their members.
	Views bool
	// MaxNodes caps the expanded tree size to guard against exponential
	// blow-ups (type substitution, or views and join views that copy
	// subtrees holding earlier views); Build fails beyond it. Every node
	// counts, copies included. 0 means the default of 1,000,000.
	MaxNodes int
}

// DefaultOptions enables join views and views with the default node cap.
func DefaultOptions() Options {
	return Options{JoinViews: true, Views: true}
}

// ErrCycle is returned (wrapped) when containment/IsDerivedFrom
// relationships form a cycle, i.e. the schema uses recursive types.
var ErrCycle = fmt.Errorf("schematree: containment/IsDerivedFrom cycle (recursive type)")

type builder struct {
	tree    *Tree
	opt     Options
	onPath  map[*model.Element]bool // cycle detection along the expansion path
	count   int
	firstOf map[*model.Element]*Node // first materialized node per element
}

func skipElement(e *model.Element) bool {
	return e.NotInstantiated || e.Kind == model.KindRefInt || e.Kind == model.KindView
}

// Build expands the schema graph into a schema tree.
func Build(s *model.Schema, opt Options) (*Tree, error) {
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 1_000_000
	}
	b := &builder{
		tree:    &Tree{Schema: s},
		opt:     opt,
		onPath:  map[*model.Element]bool{},
		firstOf: map[*model.Element]*Node{},
	}
	root, err := b.construct(s.Root(), nil)
	if err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("schematree: schema %q root is not instantiated", s.Name)
	}
	b.tree.Root = root
	if opt.JoinViews || opt.Views {
		if err := b.augment(); err != nil {
			return nil, err
		}
	}
	b.finalize()
	return b.tree, nil
}

// construct implements the paper's Figure 4: a pre-order traversal that
// creates a node per element reached through containment (or the root) and
// splices in the members of IsDerivedFrom targets without creating nodes
// for the targets themselves (type substitution).
func (b *builder) construct(e *model.Element, parent *Node) (*Node, error) {
	if skipElement(e) {
		return nil, nil
	}
	if err := b.grow(); err != nil {
		return nil, err
	}
	if b.onPath[e] {
		return nil, fmt.Errorf("%w: through %s", ErrCycle, e)
	}
	b.onPath[e] = true
	defer delete(b.onPath, e)

	n := &Node{Elem: e, Parent: parent, optDepth: -1}
	if parent != nil {
		parent.Children = append(parent.Children, n)
	}
	if err := b.expandInto(e, n); err != nil {
		return nil, err
	}
	if first, ok := b.firstOf[e]; ok {
		n.CopyOf = first
	} else {
		b.firstOf[e] = n
	}
	return n, nil
}

// grow counts one more node against MaxNodes, before it is allocated.
func (b *builder) grow() error {
	b.count++
	if b.count > b.opt.MaxNodes {
		return fmt.Errorf("schematree: expansion of %q exceeds %d nodes", b.tree.Schema.Name, b.opt.MaxNodes)
	}
	return nil
}

// expandInto attaches e's containment children to node n and splices in
// the members of each IsDerivedFrom target.
func (b *builder) expandInto(e *model.Element, n *Node) error {
	for _, c := range e.Children() {
		if _, err := b.construct(c, n); err != nil {
			return err
		}
	}
	for _, t := range e.DerivedFrom() {
		if b.onPath[t] {
			return fmt.Errorf("%w: through %s", ErrCycle, t)
		}
		b.onPath[t] = true
		err := b.expandInto(t, n)
		delete(b.onPath, t)
		if err != nil {
			return err
		}
	}
	return nil
}

// augment reifies referential constraints as join-view nodes and expands
// view definitions (paper §8.3 and §8.4). Join views are appended after
// their sibling subtrees so that post-order compares them after the tables
// they join, fixing the DAG-ordering ambiguity the paper notes.
func (b *builder) augment() error {
	for _, e := range b.tree.Schema.Elements() {
		switch {
		case e.Kind == model.KindRefInt && b.opt.JoinViews:
			if err := b.addJoinView(e); err != nil {
				return err
			}
		case e.Kind == model.KindView && b.opt.Views:
			if err := b.addView(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// tableOf walks containment up from a column to the element just below the
// refint's parent — the "table" participating in the join.
func tableOf(col, ancestor *model.Element) *model.Element {
	t := col
	for t.Parent() != nil && t.Parent() != ancestor {
		t = t.Parent()
	}
	return t
}

// addJoinView builds the join-view node for one RefInt: children are
// copies of the members of the source table(s) and of the target table.
func (b *builder) addJoinView(ri *model.Element) error {
	parentElem := ri.Parent()
	if parentElem == nil {
		return fmt.Errorf("schematree: refint %s has no containment parent", ri)
	}
	parentNode := b.firstOf[parentElem]
	if parentNode == nil {
		return fmt.Errorf("schematree: refint %s parent %s not materialized", ri, parentElem)
	}
	jv := &Node{Elem: ri, Parent: parentNode, IsJoinView: true, optDepth: -1}
	// Participating tables: the ancestors (below the refint's parent) of
	// each source column, then the target's table.
	var tables []*model.Element
	seen := map[*model.Element]bool{}
	addTable := func(t *model.Element) {
		if t != nil && !seen[t] && !skipElement(t) {
			seen[t] = true
			tables = append(tables, t)
		}
	}
	for _, src := range ri.Aggregates() {
		addTable(tableOf(src, parentElem))
	}
	for _, ref := range ri.References() {
		addTable(tableOf(ref, parentElem))
	}
	for _, tbl := range tables {
		orig := b.firstOf[tbl]
		if orig == nil {
			continue
		}
		// Children of the join view are copies of the table's members
		// (columns), not of the table node itself (Figure 6).
		for _, c := range orig.Children {
			if c.IsJoinView {
				continue // no escalating expansion of nested refints
			}
			cp, err := b.copySubtree(c, jv)
			if err != nil {
				return err
			}
			jv.Children = append(jv.Children, cp)
		}
	}
	if len(jv.Children) == 0 {
		return nil // nothing joinable; drop the view silently
	}
	if err := b.grow(); err != nil {
		return err
	}
	parentNode.Children = append(parentNode.Children, jv)
	return nil
}

// addView expands a view element: a node whose children are copies of the
// subtrees of the elements the view aggregates.
func (b *builder) addView(v *model.Element) error {
	parentElem := v.Parent()
	if parentElem == nil {
		return fmt.Errorf("schematree: view %s has no containment parent", v)
	}
	parentNode := b.firstOf[parentElem]
	if parentNode == nil {
		return fmt.Errorf("schematree: view %s parent %s not materialized", v, parentElem)
	}
	vn := &Node{Elem: v, Parent: parentNode, IsJoinView: true, optDepth: -1}
	for _, m := range v.Aggregates() {
		orig := b.firstOf[m]
		if orig == nil {
			continue
		}
		cp, err := b.copySubtree(orig, vn)
		if err != nil {
			return err
		}
		vn.Children = append(vn.Children, cp)
	}
	if len(vn.Children) == 0 {
		return nil
	}
	if err := b.grow(); err != nil {
		return err
	}
	parentNode.Children = append(parentNode.Children, vn)
	return nil
}

// copySubtree deep-copies a subtree under a new parent, marking the copies'
// CopyOf so lazy expansion can reuse similarity computations. Each copy
// counts against MaxNodes: a view may aggregate an ancestor whose subtree
// already holds earlier views, so copies alone can grow exponentially.
func (b *builder) copySubtree(orig *Node, parent *Node) (*Node, error) {
	if err := b.grow(); err != nil {
		return nil, err
	}
	cp := &Node{
		Elem:       orig.Elem,
		Parent:     parent,
		IsJoinView: orig.IsJoinView,
		optDepth:   -1,
	}
	if orig.CopyOf != nil {
		cp.CopyOf = orig.CopyOf
	} else {
		cp.CopyOf = orig
	}
	for _, c := range orig.Children {
		cc, err := b.copySubtree(c, cp)
		if err != nil {
			return nil, err
		}
		cp.Children = append(cp.Children, cc)
	}
	return cp, nil
}

// finalize assigns post-order indexes, depths, subtree ranges, the leaf
// list (with every node's range of it), the non-leaf list and per-leaf
// optional depths.
func (b *builder) finalize() {
	t := b.tree
	t.Nodes = t.Nodes[:0]
	t.leafIdx = t.leafIdx[:0]
	t.nonLeafIdx = t.nonLeafIdx[:0]
	var walk func(n *Node, depth, deepOpt int) int
	walk = func(n *Node, depth, deepOpt int) int {
		n.Depth = depth
		if n.Elem.Optional {
			deepOpt = depth
		}
		first, leafLo := len(t.Nodes), len(t.leafIdx)
		for _, c := range n.Children {
			f := walk(c, depth+1, deepOpt)
			if f < first {
				first = f
			}
		}
		n.Idx = len(t.Nodes)
		if len(n.Children) == 0 {
			first = n.Idx
			n.optDepth = deepOpt
			t.leafIdx = append(t.leafIdx, n.Idx)
		} else {
			t.nonLeafIdx = append(t.nonLeafIdx, n.Idx)
		}
		n.SubFirst = first
		n.leafLo, n.leafHi = leafLo, len(t.leafIdx)
		t.Nodes = append(t.Nodes, n)
		return first
	}
	walk(t.Root, 0, -1)
}

// Stats summarizes an expanded tree.
type Stats struct {
	Nodes     int
	Leaves    int
	MaxDepth  int
	JoinViews int
	Copies    int // nodes that are context copies of another node
}

// ComputeStats gathers Stats.
func (t *Tree) ComputeStats() Stats {
	var st Stats
	st.Nodes = len(t.Nodes)
	st.Leaves = len(t.leafIdx)
	for _, n := range t.Nodes {
		if n.Depth > st.MaxDepth {
			st.MaxDepth = n.Depth
		}
		if n.IsJoinView {
			st.JoinViews++
		}
		if n.CopyOf != nil {
			st.Copies++
		}
	}
	return st
}

// Dump renders the tree with post-order indexes for debugging.
func (t *Tree) Dump() string {
	var sb strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&sb, "[%d] %s", n.Idx, n.Name())
		if n.IsJoinView {
			sb.WriteString(" (joinview)")
		}
		if n.CopyOf != nil {
			sb.WriteString(" (copy)")
		}
		sb.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return sb.String()
}
