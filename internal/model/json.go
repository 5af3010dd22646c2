package model

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// jsonSchema is the on-disk representation of a schema used by the native
// .schema.json format of the CLI tools:
//
//   - root: the root element and its containment tree;
//   - types: the trees of the other elements with no containment parent,
//     the shared types that IsDerivedFrom targets (XSD named complex
//     types, Avro named records, JSON Schema $defs); a type's path starts
//     at its own name;
//   - refints: the referential constraints built by Schema.AddRefInt, each
//     re-created on load under the common ancestor of its endpoints;
//   - derivations: the IsDerivedFrom edges;
//   - links: every other aggregation and reference link, each under the
//     element that owns it: a view's member columns, a key's columns, a
//     refint's second and later targets (a DTD IDREF references every ID
//     key). The section is written only when such links exist, so schemas
//     without them serialize exactly as before it was added.
//
// The refints, derivations and links sections name elements by dotted
// path, or by an element's "id" where several elements share a path (a
// reference first resolves as an id, then as a path; with duplicate paths
// the last element in document order wins). A refint that a derivation or
// link names always carries an id, since refints are not written in the
// tree. On load the root tree is created first, then the types, then the
// refints, so every section may name elements of either tree, and
// derivations and links may also name refints.
type jsonSchema struct {
	Name  string         `json:"name"`
	Root  *jsonElement   `json:"root"`
	Types []*jsonElement `json:"types,omitempty"`
	Refs  []jsonRefInt   `json:"refints,omitempty"`
	Ders  []jsonDerives  `json:"derivations,omitempty"`
	Links []jsonLinks    `json:"links,omitempty"`
}

type jsonElement struct {
	ID       string         `json:"id,omitempty"` // optional explicit id for cross references
	Name     string         `json:"name"`
	Kind     string         `json:"kind,omitempty"`
	Type     string         `json:"type,omitempty"`
	Optional bool           `json:"optional,omitempty"`
	Key      bool           `json:"key,omitempty"`
	NoInst   bool           `json:"notInstantiated,omitempty"`
	Desc     string         `json:"description,omitempty"`
	Children []*jsonElement `json:"children,omitempty"`
}

type jsonRefInt struct {
	ID      string   `json:"id,omitempty"` // set when a derivation or link names the refint
	Name    string   `json:"name"`
	Sources []string `json:"sources"` // ids or paths of source columns
	Target  string   `json:"target"`  // id or path of target key/table
}

type jsonDerives struct {
	Element string `json:"element"` // id or path
	Type    string `json:"type"`    // id or path of the shared type
}

// jsonLinks lists the aggregation and reference links one element owns,
// in the order they were made.
type jsonLinks struct {
	Owner      string   `json:"owner"`                // id or path
	Aggregates []string `json:"aggregates,omitempty"` // ids or paths
	References []string `json:"references,omitempty"` // ids or paths
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// ParseKind maps a kind name ("table", "column", ...) to its Kind; unknown
// names map to KindOther.
func ParseKind(name string) Kind {
	if k, ok := kindByName[strings.ToLower(strings.TrimSpace(name))]; ok {
		return k
	}
	return KindOther
}

// declaredRefInt reports whether e is a referential constraint the refints
// section describes: a RefInt that AddRefInt would rebuild as it is — the
// source and target links, no children or derivations, only the flag
// AddRefInt sets, contained by the common ancestor of its endpoints, none
// of which is a RefInt. Any other RefInt element is written in place like
// a plain one, its links in the links section.
func declaredRefInt(e *Element) bool {
	if e.Kind != KindRefInt || len(e.aggregates) == 0 || len(e.references) == 0 ||
		len(e.children) > 0 || len(e.derivedFrom) > 0 || !e.NotInstantiated ||
		e.Optional || e.IsKey || e.Description != "" || e.Type != DTNone {
		return false
	}
	anc := e.references[0]
	if anc.Kind == KindRefInt {
		return false
	}
	for _, src := range e.aggregates {
		if src.Kind == KindRefInt {
			return false
		}
		anc = CommonAncestor(anc, src)
	}
	return anc != nil && anc == e.parent
}

// extraLinks returns the aggregation and reference links of e that the
// refints section does not carry: all of them for a plain element, the
// second and later targets of a declared refint.
func extraLinks(e *Element, declared bool) (aggs, refs []*Element) {
	if declared {
		return nil, e.references[1:]
	}
	return e.aggregates, e.references
}

// MarshalJSON implements the native schema file format (see jsonSchema).
// IsDerivedFrom, aggregation and reference links are emitted in the
// refints, derivations and links sections, keyed by element path, or by
// an id written on the element when its path is not unique.
func (s *Schema) MarshalJSON() ([]byte, error) {
	declared := make([]bool, len(s.elements))
	for i, e := range s.elements {
		declared[i] = declaredRefInt(e)
	}
	ids := s.referenceIDs(declared)
	ref := func(e *Element) string {
		if id, ok := ids[e]; ok {
			return id
		}
		return e.Path()
	}
	var conv func(e *Element) *jsonElement
	conv = func(e *Element) *jsonElement {
		je := &jsonElement{
			ID:       ids[e],
			Name:     e.Name,
			Optional: e.Optional,
			Key:      e.IsKey,
			NoInst:   e.NotInstantiated,
			Desc:     e.Description,
		}
		if e.Kind != KindOther && e.Kind != KindSchema {
			je.Kind = e.Kind.String()
		}
		if e.Type != DTNone {
			je.Type = e.Type.String()
		}
		// Declared refints are re-created from the refints section on
		// load.
		for _, c := range e.children {
			if !declared[c.id] {
				je.Children = append(je.Children, conv(c))
			}
		}
		return je
	}
	js := jsonSchema{Name: s.Name, Root: conv(s.root)}
	for _, e := range s.elements {
		switch {
		case declared[e.id]:
			ri := jsonRefInt{ID: ids[e], Name: e.Name, Target: ref(e.references[0])}
			for _, src := range e.aggregates {
				ri.Sources = append(ri.Sources, ref(src))
			}
			js.Refs = append(js.Refs, ri)
		case e.parent == nil && e != s.root:
			js.Types = append(js.Types, conv(e))
		}
		for _, t := range e.derivedFrom {
			js.Ders = append(js.Ders, jsonDerives{Element: ref(e), Type: ref(t)})
		}
		if aggs, refs := extraLinks(e, declared[e.id]); len(aggs)+len(refs) > 0 {
			l := jsonLinks{Owner: ref(e)}
			for _, a := range aggs {
				l.Aggregates = append(l.Aggregates, ref(a))
			}
			for _, r := range refs {
				l.References = append(l.References, ref(r))
			}
			js.Links = append(js.Links, l)
		}
	}
	return json.MarshalIndent(js, "", "  ")
}

// referenceIDs assigns an id to every element that a derivation, refint
// or link names but whose path another written element shares, so the
// reference resolves to it alone, and to every declared refint a link
// names (refints have no path on load). An id is the element's ID after
// more '#' than any written path starts with, so no path reference can
// resolve to an id instead. It returns nil when no reference needs one.
func (s *Schema) referenceIDs(declared []bool) map[*Element]string {
	var named []*Element
	for _, e := range s.elements {
		named = append(named, e.derivedFrom...)
		if len(e.derivedFrom) > 0 {
			named = append(named, e)
		}
		if declared[e.id] {
			named = append(named, e.aggregates...)
			named = append(named, e.references[0])
		}
		if aggs, refs := extraLinks(e, declared[e.id]); len(aggs)+len(refs) > 0 {
			named = append(named, e)
			named = append(named, aggs...)
			named = append(named, refs...)
		}
	}
	if len(named) == 0 {
		return nil
	}
	paths := make(map[string]int, len(s.elements))
	for _, e := range s.elements {
		if !declared[e.id] {
			paths[e.Path()]++
		}
	}
	hashes := 0
	for p := range paths {
		hashes = max(hashes, len(p)-len(strings.TrimLeft(p, "#")))
	}
	prefix := strings.Repeat("#", hashes+1)
	var ids map[*Element]string
	for _, e := range named {
		if _, done := ids[e]; done || (!declared[e.id] && paths[e.Path()] < 2) {
			continue
		}
		if ids == nil {
			ids = map[*Element]string{}
		}
		ids[e] = prefix + strconv.Itoa(e.id)
	}
	return ids
}

// WriteJSON writes the schema in the native JSON format.
func (s *Schema) WriteJSON(w io.Writer) error {
	b, err := s.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadJSON parses a schema from the native JSON format.
func ReadJSON(r io.Reader) (*Schema, error) {
	var js jsonSchema
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("model: decoding schema json: %w", err)
	}
	if js.Root == nil {
		return nil, fmt.Errorf("model: schema json has no root")
	}
	name := js.Name
	if name == "" {
		name = js.Root.Name
	}
	s := New(name)
	if js.Root.Name != "" {
		s.root.Name = js.Root.Name
	}
	byID := map[string]*Element{}
	record := func(id string, e *Element) error {
		if id != "" {
			if _, dup := byID[id]; dup {
				return fmt.Errorf("model: duplicate element id %q", id)
			}
			byID[id] = e
		}
		return nil
	}
	apply := func(je *jsonElement, e *Element) {
		e.Kind = ParseKind(je.Kind)
		if je.Kind == "" && e != s.root {
			e.Kind = KindOther
		}
		e.Type = ParseDataType(je.Type)
		e.Optional = je.Optional
		e.IsKey = je.Key
		e.NotInstantiated = je.NoInst
		e.Description = je.Desc
	}
	apply(js.Root, s.root)
	s.root.Kind = KindSchema
	if err := record(js.Root.ID, s.root); err != nil {
		return nil, err
	}
	// add creates the element je describes under parent (free-standing
	// when parent is nil) and then its subtree.
	var add func(parent *Element, je *jsonElement) error
	add = func(parent *Element, je *jsonElement) error {
		if je == nil {
			return fmt.Errorf("model: schema json has a null element")
		}
		var e *Element
		if parent == nil {
			e = s.NewElement(je.Name, ParseKind(je.Kind))
		} else {
			e = s.AddChild(parent, je.Name, ParseKind(je.Kind))
		}
		apply(je, e)
		if err := record(je.ID, e); err != nil {
			return err
		}
		for _, c := range je.Children {
			if err := add(e, c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, je := range js.Root.Children {
		if err := add(s.root, je); err != nil {
			return nil, err
		}
	}
	for _, je := range js.Types {
		if err := add(nil, je); err != nil {
			return nil, err
		}
	}
	// A path reference names one of the elements created so far (not a
	// refint the refints section adds: those are named by id), the last in
	// document order when several share the path. The path map is built on
	// the first reference that is not an id.
	named := s.elements
	var byPath map[string]*Element
	resolve := func(ref string) (*Element, error) {
		if e, ok := byID[ref]; ok {
			return e, nil
		}
		if byPath == nil {
			byPath = make(map[string]*Element, len(named))
			for _, e := range named {
				byPath[e.Path()] = e
			}
		}
		if e, ok := byPath[ref]; ok {
			return e, nil
		}
		return nil, fmt.Errorf("model: unresolved element reference %q", ref)
	}
	for _, rj := range js.Refs {
		var sources []*Element
		for _, ref := range rj.Sources {
			e, err := resolve(ref)
			if err != nil {
				return nil, err
			}
			sources = append(sources, e)
		}
		target, err := resolve(rj.Target)
		if err != nil {
			return nil, err
		}
		ri, err := s.AddRefInt(rj.Name, sources, target)
		if err != nil {
			return nil, err
		}
		if err := record(rj.ID, ri); err != nil {
			return nil, err
		}
	}
	for _, d := range js.Ders {
		e, err := resolve(d.Element)
		if err != nil {
			return nil, err
		}
		t, err := resolve(d.Type)
		if err != nil {
			return nil, err
		}
		if err := s.DeriveFrom(e, t); err != nil {
			return nil, err
		}
	}
	for _, lj := range js.Links {
		owner, err := resolve(lj.Owner)
		if err != nil {
			return nil, err
		}
		for _, ref := range lj.Aggregates {
			m, err := resolve(ref)
			if err != nil {
				return nil, err
			}
			if err := s.Aggregate(owner, m); err != nil {
				return nil, err
			}
		}
		for _, ref := range lj.References {
			m, err := resolve(ref)
			if err != nil {
				return nil, err
			}
			if err := s.Refer(owner, m); err != nil {
				return nil, err
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
