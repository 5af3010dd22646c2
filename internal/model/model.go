// Package model implements the generic schema model of Cupid (paper §8.1).
//
// A schema is a rooted graph whose nodes are elements. Elements are
// interconnected by three relationship types that together may produce
// non-tree schema graphs:
//
//   - Containment: physical containment; every element except the root is
//     contained by exactly one other element (a table contains its columns,
//     an XML element contains its attributes).
//   - Aggregation: a weaker grouping that allows multiple parents (a
//     compound key aggregates columns of its table).
//   - IsDerivedFrom: abstracts IsA and IsTypeOf to model shared type
//     information (an XML element derives from its complex type, a subtype
//     derives from its supertype). IsDerivedFrom shortcuts containment: the
//     members of the referenced type are implicitly members of the deriving
//     element.
//
// Referential integrity constraints (foreign keys, ID/IDREF, key/keyref)
// are modelled as RefInt elements that aggregate their source columns and
// reference the target key (a fourth relationship type, Reference).
//
// The model is deliberately independent of any concrete data model; the
// importer packages (xsdlite, dtd, sqlddl) translate concrete schemas into
// it, and internal/schematree expands it into the schema tree on which the
// TreeMatch algorithm operates.
package model

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Kind classifies an element by the role it plays in its native data model.
// Kinds do not affect the matching mathematics directly; they control
// schema-tree construction (e.g. keys are tagged not-instantiated) and make
// rendered mappings readable.
type Kind int

// Element kinds. KindOther is the zero value so that a bare Element is a
// plain, instantiated schema element.
const (
	KindOther Kind = iota
	// KindSchema is the root node that contains the schema's top elements.
	KindSchema
	// KindTable is a relational table (or class in an OO schema).
	KindTable
	// KindColumn is a relational column (or class attribute).
	KindColumn
	// KindElement is an XML element.
	KindElement
	// KindAttribute is an XML attribute.
	KindAttribute
	// KindType is a named (complex) type definition, typically the target
	// of IsDerivedFrom relationships.
	KindType
	// KindKey is a primary key or XSD key. Keys are tagged not-instantiated
	// during schema-tree construction: they carry no instance data.
	KindKey
	// KindRefInt reifies a referential integrity constraint (foreign key,
	// IDREF, keyref). It aggregates the constraint's source elements and
	// references its target key.
	KindRefInt
	// KindView is a view definition; treated like a referential constraint:
	// a schema-tree node is added whose children are the view's elements.
	KindView
	// KindJoinView is a synthetic node introduced by schema-tree
	// augmentation: the join of the two tables participating in a RefInt.
	KindJoinView
)

var kindNames = map[Kind]string{
	KindOther:     "other",
	KindSchema:    "schema",
	KindTable:     "table",
	KindColumn:    "column",
	KindElement:   "element",
	KindAttribute: "attribute",
	KindType:      "type",
	KindKey:       "key",
	KindRefInt:    "refint",
	KindView:      "view",
	KindJoinView:  "joinview",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Element is a node of a schema graph. Create elements through
// Schema.NewElement (or the importer packages); the zero Element is not
// usable on its own because every element belongs to exactly one Schema.
type Element struct {
	id     int
	schema *Schema

	// Name is the element's name in its native schema. It may be empty for
	// anonymous constructs such as unnamed keys.
	Name string
	// Description is optional annotation text (e.g. from a data
	// dictionary). It is currently informational only; the paper lists
	// exploiting descriptions via IR techniques as future work.
	Description string
	// Type is the element's data type. Non-leaf elements usually carry
	// DTNone or DTComplex.
	Type DataType
	// Kind classifies the element's role; see Kind.
	Kind Kind
	// Optional marks non-required elements of semi-structured schemas
	// (paper §8.4, "Optionality"). Optional leaves with no strong link are
	// discounted in the structural similarity.
	Optional bool
	// NotInstantiated marks elements that carry no instance data (keys,
	// refints). They are skipped during schema-tree construction.
	NotInstantiated bool
	// IsKey marks elements that are part of a primary key; "keyness"
	// participates in the DIKE baseline's initialization and is available
	// to linguistic matching as a constraint.
	IsKey bool

	parent      *Element // containment parent (nil for the root)
	children    []*Element
	derivedFrom []*Element // IsDerivedFrom targets, in declaration order
	aggregates  []*Element
	references  []*Element
}

// ID returns the element's stable identifier within its schema. IDs are
// assigned densely from 0 in creation order.
func (e *Element) ID() int { return e.id }

// Schema returns the schema the element belongs to.
func (e *Element) Schema() *Schema { return e.schema }

// Parent returns the containment parent, or nil for the root.
func (e *Element) Parent() *Element { return e.parent }

// Children returns the containment children in insertion order. The
// returned slice must not be modified.
func (e *Element) Children() []*Element { return e.children }

// DerivedFrom returns the IsDerivedFrom targets in declaration order.
func (e *Element) DerivedFrom() []*Element { return e.derivedFrom }

// Aggregates returns the elements this element aggregates (e.g. the source
// columns of a foreign key).
func (e *Element) Aggregates() []*Element { return e.aggregates }

// References returns the elements this element references (e.g. the primary
// key targeted by a foreign key). The reference relationship is 1:n.
func (e *Element) References() []*Element { return e.references }

// IsLeaf reports whether the element has neither containment children nor
// IsDerivedFrom targets, i.e. whether it will be a leaf of the expanded
// schema tree.
func (e *Element) IsLeaf() bool {
	return len(e.children) == 0 && len(e.derivedFrom) == 0
}

// Path returns the containment path from the root to the element, joined by
// dots, e.g. "PO.POLines.Item.Qty". The root's name is included only when
// non-empty.
func (e *Element) Path() string {
	var parts []string
	for n := e; n != nil; n = n.parent {
		if n.Name != "" {
			parts = append(parts, n.Name)
		}
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, ".")
}

// String renders the element as kind:path for diagnostics.
func (e *Element) String() string {
	if e == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s:%s", e.Kind, e.Path())
}

// Schema is a rooted graph of elements. The zero value is not usable; call
// New.
type Schema struct {
	// Name identifies the schema in diagnostics and rendered mappings.
	Name string

	root     *Element
	elements []*Element
}

// New creates an empty schema with a root element of KindSchema carrying
// the given name. The root's name participates in linguistic matching just
// like any other element name (the paper's examples name their roots, e.g.
// "PO" and "PurchaseOrder").
func New(name string) *Schema {
	s := &Schema{Name: name}
	s.root = s.newElement(name, KindSchema)
	return s
}

// Root returns the schema's root element.
func (s *Schema) Root() *Element { return s.root }

// Elements returns all elements in creation order, including the root and
// any not-instantiated elements. The returned slice must not be modified.
func (s *Schema) Elements() []*Element { return s.elements }

// Len returns the number of elements in the schema (including the root).
func (s *Schema) Len() int { return len(s.elements) }

// ElementByID returns the element with the given ID, or nil when out of
// range.
func (s *Schema) ElementByID(id int) *Element {
	if id < 0 || id >= len(s.elements) {
		return nil
	}
	return s.elements[id]
}

func (s *Schema) newElement(name string, kind Kind) *Element {
	e := &Element{id: len(s.elements), schema: s, Name: name, Kind: kind}
	s.elements = append(s.elements, e)
	return e
}

// NewElement creates a free-standing element (no containment parent yet).
// Most callers should prefer AddChild, which creates and attaches in one
// step; NewElement exists for shared types that are attached to multiple
// owners via IsDerivedFrom.
func (s *Schema) NewElement(name string, kind Kind) *Element {
	return s.newElement(name, kind)
}

// AddChild creates an element of the given name and kind and attaches it
// under parent via containment. It panics if parent belongs to a different
// schema, mirroring the contract that containment never crosses schemas.
func (s *Schema) AddChild(parent *Element, name string, kind Kind) *Element {
	if parent.schema != s {
		panic("model: AddChild parent belongs to a different schema")
	}
	e := s.newElement(name, kind)
	e.parent = parent
	parent.children = append(parent.children, e)
	return e
}

// Contain attaches child under parent via containment. It returns an error
// if the child already has a containment parent (containment allows exactly
// one) or if the elements belong to different schemas.
func (s *Schema) Contain(parent, child *Element) error {
	if parent.schema != s || child.schema != s {
		return fmt.Errorf("model: containment across schemas (%s -> %s)", parent, child)
	}
	if child.parent != nil {
		return fmt.Errorf("model: %s already contained by %s", child, child.parent)
	}
	if child == s.root {
		return fmt.Errorf("model: the root cannot be contained")
	}
	child.parent = parent
	parent.children = append(parent.children, child)
	return nil
}

// DeriveFrom records that e IsDerivedFrom target: target's members become
// implicit members of e during schema-tree expansion (type substitution).
func (s *Schema) DeriveFrom(e, target *Element) error {
	if e.schema != s || target.schema != s {
		return fmt.Errorf("model: IsDerivedFrom across schemas (%s -> %s)", e, target)
	}
	if e == target {
		return fmt.Errorf("model: %s cannot derive from itself", e)
	}
	e.derivedFrom = append(e.derivedFrom, target)
	return nil
}

// Aggregate records that owner aggregates member (weak grouping; multiple
// parents allowed, no delete propagation).
func (s *Schema) Aggregate(owner, member *Element) error {
	if owner.schema != s || member.schema != s {
		return fmt.Errorf("model: aggregation across schemas (%s -> %s)", owner, member)
	}
	owner.aggregates = append(owner.aggregates, member)
	return nil
}

// Refer records that src references dst (e.g. a foreign key references the
// primary key of its target table). The relationship is 1:n: one source may
// reference several targets (an IDREF may reference multiple IDs).
func (s *Schema) Refer(src, dst *Element) error {
	if src.schema != s || dst.schema != s {
		return fmt.Errorf("model: reference across schemas (%s -> %s)", src, dst)
	}
	src.references = append(src.references, dst)
	return nil
}

// AddRefInt builds the paper's Figure 5 structure in one call: it creates a
// RefInt element named name contained by the common ancestor of the source
// and target tables, makes it aggregate each source column, and makes it
// reference the target key element. The RefInt is tagged not-instantiated;
// schema-tree augmentation turns it into a join-view node.
func (s *Schema) AddRefInt(name string, sources []*Element, target *Element) (*Element, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("model: refint %q needs at least one source", name)
	}
	anc := sources[0]
	for _, src := range sources[1:] {
		anc = CommonAncestor(anc, src)
		if anc == nil {
			return nil, fmt.Errorf("model: refint %q sources have no common ancestor", name)
		}
	}
	anc = CommonAncestor(anc, target)
	if anc == nil {
		return nil, fmt.Errorf("model: refint %q source and target have no common ancestor", name)
	}
	ri := s.AddChild(anc, name, KindRefInt)
	ri.NotInstantiated = true
	for _, src := range sources {
		if err := s.Aggregate(ri, src); err != nil {
			return nil, err
		}
	}
	if err := s.Refer(ri, target); err != nil {
		return nil, err
	}
	return ri, nil
}

// CommonAncestor returns the deepest element that is a containment ancestor
// of both a and b (either argument counts as its own ancestor), or nil when
// they belong to different schemas.
func CommonAncestor(a, b *Element) *Element {
	if a == nil || b == nil || a.schema != b.schema {
		return nil
	}
	seen := map[*Element]bool{}
	for n := a; n != nil; n = n.parent {
		seen[n] = true
	}
	for n := b; n != nil; n = n.parent {
		if seen[n] {
			return n
		}
	}
	return nil
}

// Depth returns the containment depth of e (root = 0).
func Depth(e *Element) int {
	d := 0
	for n := e.parent; n != nil; n = n.parent {
		d++
	}
	return d
}

// PreOrder visits the containment tree rooted at e in pre-order.
func PreOrder(e *Element, visit func(*Element)) {
	visit(e)
	for _, c := range e.children {
		PreOrder(c, visit)
	}
}

// PostOrder visits the containment tree rooted at e in post-order.
func PostOrder(e *Element, visit func(*Element)) {
	for _, c := range e.children {
		PostOrder(c, visit)
	}
	visit(e)
}

// Leaves returns, in document order, the leaf elements of the containment
// tree rooted at e (ignoring IsDerivedFrom expansion; schematree handles
// that).
func Leaves(e *Element) []*Element {
	var out []*Element
	PreOrder(e, func(n *Element) {
		if len(n.children) == 0 {
			out = append(out, n)
		}
	})
	return out
}

// Validate checks the structural invariants of the schema graph:
//
//   - every non-root element reachable from the root has exactly the parent
//     recorded for it (consistency of the parent/children links);
//   - the root has no parent;
//   - no containment cycles;
//   - aggregation and reference endpoints belong to this schema;
//   - the schema name and every element's name and description are valid
//     UTF-8, so the native JSON format (whose strings are Unicode) writes
//     them back unchanged and a reloaded schema keeps its fingerprint.
//
// IsDerivedFrom+containment cycles are legal in the model (recursive types)
// but rejected later by schema-tree construction, matching the paper, which
// defers cyclic schemas to future work.
func (s *Schema) Validate() error {
	if s.root == nil {
		return fmt.Errorf("model: schema %q has no root", s.Name)
	}
	if s.root.parent != nil {
		return fmt.Errorf("model: root of %q has a parent", s.Name)
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(s.elements))
	var walk func(e *Element) error
	walk = func(e *Element) error {
		switch color[e.id] {
		case grey:
			return fmt.Errorf("model: containment cycle through %s", e)
		case black:
			return fmt.Errorf("model: %s contained twice", e)
		}
		color[e.id] = grey
		for _, c := range e.children {
			if c.parent != e {
				return fmt.Errorf("model: %s lists child %s whose parent is %s", e, c, c.parent)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		color[e.id] = black
		return nil
	}
	if err := walk(s.root); err != nil {
		return err
	}
	if !utf8.ValidString(s.Name) {
		return fmt.Errorf("model: schema name %q is not valid UTF-8", s.Name)
	}
	for _, e := range s.elements {
		if !utf8.ValidString(e.Name) {
			return fmt.Errorf("model: %s element %q has a name that is not valid UTF-8", e.Kind, e.Path())
		}
		if !utf8.ValidString(e.Description) {
			return fmt.Errorf("model: %s element %q has a description that is not valid UTF-8: %q", e.Kind, e.Path(), e.Description)
		}
		for _, t := range e.derivedFrom {
			if t.schema != s {
				return fmt.Errorf("model: %s derives from foreign element %s", e, t)
			}
		}
		for _, t := range e.aggregates {
			if t.schema != s {
				return fmt.Errorf("model: %s aggregates foreign element %s", e, t)
			}
		}
		for _, t := range e.references {
			if t.schema != s {
				return fmt.Errorf("model: %s references foreign element %s", e, t)
			}
		}
	}
	return nil
}

// Stats summarizes a schema for diagnostics and experiment logs.
type Stats struct {
	Elements    int // total elements, including root and not-instantiated
	Leaves      int // containment leaves reachable from the root
	MaxDepth    int // deepest containment nesting (root = 0)
	RefInts     int // elements of KindRefInt
	SharedTypes int // elements targeted by more than one IsDerivedFrom
	Optional    int // elements marked Optional
}

// ComputeStats gathers Stats for the schema.
func (s *Schema) ComputeStats() Stats {
	st := Stats{Elements: len(s.elements)}
	inbound := make([]int, len(s.elements))
	for _, e := range s.elements {
		if e.Kind == KindRefInt {
			st.RefInts++
		}
		if e.Optional {
			st.Optional++
		}
		for _, t := range e.derivedFrom {
			inbound[t.id]++
		}
	}
	for _, n := range inbound {
		if n > 1 {
			st.SharedTypes++
		}
	}
	PreOrder(s.root, func(e *Element) {
		if d := Depth(e); d > st.MaxDepth {
			st.MaxDepth = d
		}
		if len(e.children) == 0 {
			st.Leaves++
		}
	})
	return st
}

// Dump renders the containment tree as an indented listing, useful in tests
// and the CLI's -dump flag. Children appear in insertion order; derived
// types are annotated inline.
func (s *Schema) Dump() string {
	var b strings.Builder
	var walk func(e *Element, depth int)
	walk = func(e *Element, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(e.Name)
		if e.Type != DTNone {
			fmt.Fprintf(&b, " : %s", e.Type)
		}
		if len(e.derivedFrom) > 0 {
			names := make([]string, len(e.derivedFrom))
			for i, t := range e.derivedFrom {
				names[i] = t.Name
			}
			fmt.Fprintf(&b, " <- %s", strings.Join(names, ","))
		}
		if e.Optional {
			b.WriteString(" (optional)")
		}
		if e.NotInstantiated {
			b.WriteString(" (not-instantiated)")
		}
		b.WriteByte('\n')
		for _, c := range e.children {
			walk(c, depth+1)
		}
	}
	walk(s.root, 0)
	return b.String()
}

// SortChildrenByName orders every element's children lexicographically.
// Importers whose sources have no meaningful document order (e.g. maps of
// tables) call this so that runs are deterministic.
func (s *Schema) SortChildrenByName() {
	for _, e := range s.elements {
		sort.SliceStable(e.children, func(i, j int) bool {
			return e.children[i].Name < e.children[j].Name
		})
	}
}
