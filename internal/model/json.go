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
//   - derivations: the IsDerivedFrom edges.
//
// The refints and derivations sections name elements by dotted path, or
// by an element's "id" where several elements share a path (a reference
// first resolves as an id, then as a path; with duplicate paths the last
// element in document order wins). On load the root tree is created
// first, then the types, so derivations and refints may name either.
type jsonSchema struct {
	Name  string         `json:"name"`
	Root  *jsonElement   `json:"root"`
	Types []*jsonElement `json:"types,omitempty"`
	Refs  []jsonRefInt   `json:"refints,omitempty"`
	Ders  []jsonDerives  `json:"derivations,omitempty"`
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
	Name    string   `json:"name"`
	Sources []string `json:"sources"` // ids or paths of source columns
	Target  string   `json:"target"`  // id or path of target key/table
}

type jsonDerives struct {
	Element string `json:"element"` // id or path
	Type    string `json:"type"`    // id or path of the shared type
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
// section describes: a RefInt with the source and target links AddRefInt
// gives it. Any other RefInt element is written in place like a plain one.
func declaredRefInt(e *Element) bool {
	return e.Kind == KindRefInt && len(e.aggregates) > 0 && len(e.references) > 0
}

// MarshalJSON implements the native schema file format (see jsonSchema).
// IsDerivedFrom, aggregation, and reference links that AddRefInt created
// are emitted in the refints/derivations sections, keyed by element path,
// or by an id written on the element when its path is not unique.
func (s *Schema) MarshalJSON() ([]byte, error) {
	ids := s.referenceIDs()
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
			if !declaredRefInt(c) {
				je.Children = append(je.Children, conv(c))
			}
		}
		return je
	}
	js := jsonSchema{Name: s.Name, Root: conv(s.root)}
	for _, e := range s.elements {
		switch {
		case declaredRefInt(e):
			ri := jsonRefInt{Name: e.Name, Target: ref(e.references[0])}
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
	}
	return json.MarshalIndent(js, "", "  ")
}

// referenceIDs assigns an id to every element that a derivation or refint
// names but whose path another written element shares, so the reference
// resolves to it alone. An id is the element's ID after more '#' than any
// written path starts with, so no path reference can resolve to an id
// instead. It returns nil when no reference is ambiguous.
func (s *Schema) referenceIDs() map[*Element]string {
	var named []*Element
	for _, e := range s.elements {
		named = append(named, e.derivedFrom...)
		if len(e.derivedFrom) > 0 {
			named = append(named, e)
		}
		if declaredRefInt(e) {
			named = append(named, e.aggregates...)
			named = append(named, e.references[0])
		}
	}
	if len(named) == 0 {
		return nil
	}
	paths := make(map[string]int, len(s.elements))
	for _, e := range s.elements {
		if !declaredRefInt(e) {
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
		if _, done := ids[e]; done || paths[e.Path()] < 2 {
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
	record := func(je *jsonElement, e *Element) error {
		if je.ID != "" {
			if _, dup := byID[je.ID]; dup {
				return fmt.Errorf("model: duplicate element id %q", je.ID)
			}
			byID[je.ID] = e
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
	if err := record(js.Root, s.root); err != nil {
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
		if err := record(je, e); err != nil {
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
	// refint the refints section adds), the last in document order when
	// several share the path. The path map is built on the first
	// reference that is not an id.
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
		if _, err := s.AddRefInt(rj.Name, sources, target); err != nil {
			return nil, err
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
