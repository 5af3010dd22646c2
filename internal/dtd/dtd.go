// Package dtd imports XML DTDs into the generic schema model. It parses
// <!ELEMENT> content models (sequences, choices, occurrence indicators)
// and <!ATTLIST> declarations. ID attributes become key elements; IDREF /
// IDREFS attributes become RefInt constraints referencing every ID key in
// the document — the 1:n reference semantics the paper calls out for DTDs
// (§8.3: "a single IDREF attribute [may] reference multiple IDs in an XML
// DTD").
package dtd

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/model"
)

// Parse reads a DTD document and builds a schema. The root element is the
// declared element that no other element's content model references; if
// that is ambiguous, the first declared element wins.
func Parse(schemaName string, doc string) (*model.Schema, error) {
	decls, err := scan(doc)
	if err != nil {
		return nil, err
	}
	elems := map[string]*elemDecl{}
	var order []string
	referenced := map[string]bool{}
	attlists := map[string][]attDecl{}
	for _, d := range decls {
		switch d.kind {
		case "ELEMENT":
			ed, err := parseElement(d.body)
			if err != nil {
				return nil, err
			}
			if _, dup := elems[ed.name]; dup {
				return nil, fmt.Errorf("dtd: duplicate element %q", ed.name)
			}
			elems[ed.name] = ed
			order = append(order, ed.name)
			for _, c := range ed.children {
				referenced[c.name] = true
			}
		case "ATTLIST":
			name, atts, err := parseAttlist(d.body)
			if err != nil {
				return nil, err
			}
			attlists[name] = append(attlists[name], atts...)
		default:
			// ENTITY, NOTATION etc. are irrelevant to matching.
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("dtd: no element declarations")
	}
	rootName := order[0]
	for _, n := range order {
		if !referenced[n] {
			rootName = n
			break
		}
	}
	// The schema root carries the DTD's root element name (it participates
	// in linguistic matching); the schema's display name defaults to it.
	s := model.New(rootName)
	if schemaName != "" {
		s.Name = schemaName
	}
	b := &builder{schema: s, elems: elems, attlists: attlists}
	if err := b.build(rootName, s.Root(), map[string]bool{}, true); err != nil {
		return nil, err
	}
	if err := b.refints(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- declaration scanning ------------------------------------------------

type decl struct {
	kind string // ELEMENT, ATTLIST, ...
	body string
}

func scan(doc string) ([]decl, error) {
	var out []decl
	i := 0
	for {
		start := strings.Index(doc[i:], "<!")
		if start < 0 {
			return out, nil
		}
		start += i
		if strings.HasPrefix(doc[start:], "<!--") {
			end := strings.Index(doc[start:], "-->")
			if end < 0 {
				return nil, fmt.Errorf("dtd: unterminated comment")
			}
			i = start + end + 3
			continue
		}
		end := strings.IndexByte(doc[start:], '>')
		if end < 0 {
			return nil, fmt.Errorf("dtd: unterminated declaration")
		}
		body := doc[start+2 : start+end]
		i = start + end + 1
		fields := strings.Fields(body)
		if len(fields) == 0 {
			continue
		}
		out = append(out, decl{kind: fields[0], body: strings.TrimSpace(body[len(fields[0]):])})
	}
}

// --- element content models ----------------------------------------------

type childRef struct {
	name     string
	optional bool // ? or *
}

type elemDecl struct {
	name     string
	children []childRef
	pcdata   bool
	any      bool
}

// parseElement parses `name (a, b?, (c | d)*, #PCDATA)` content models.
// Grouping is flattened: matching cares about which children may occur and
// whether they are optional, not about order or alternation structure.
func parseElement(body string) (*elemDecl, error) {
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return nil, fmt.Errorf("dtd: ELEMENT without name")
	}
	ed := &elemDecl{name: fields[0]}
	rest := strings.TrimSpace(body[len(fields[0]):])
	switch rest {
	case "EMPTY", "":
		return ed, nil
	case "ANY":
		ed.any = true
		return ed, nil
	}
	// Tokenize the content model.
	var toks []string
	cur := strings.Builder{}
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range rest {
		switch {
		case r == '(' || r == ')' || r == ',' || r == '|' || r == '?' || r == '*' || r == '+':
			flush()
			toks = append(toks, string(r))
		case unicode.IsSpace(r):
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	// Groups are flattened; a choice group (or a group suffixed ? or *)
	// retroactively marks every member added inside it as optional.
	type group struct {
		start  int // index into ed.children at group open
		choice bool
	}
	var groupStack []group
	markSince := func(start int) {
		for k := start; k < len(ed.children); k++ {
			ed.children[k].optional = true
		}
	}
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch t {
		case "(":
			groupStack = append(groupStack, group{start: len(ed.children)})
		case ")":
			if len(groupStack) == 0 {
				return nil, fmt.Errorf("dtd: unbalanced parens in %q", body)
			}
			g := groupStack[len(groupStack)-1]
			groupStack = groupStack[:len(groupStack)-1]
			suffixed := i+1 < len(toks) && (toks[i+1] == "?" || toks[i+1] == "*")
			if g.choice || suffixed {
				markSince(g.start)
			}
			if suffixed {
				i++
			}
		case "|":
			if len(groupStack) > 0 {
				groupStack[len(groupStack)-1].choice = true
			}
		case ",", "+":
			// sequencing / one-or-more: no matching significance
		case "?", "*":
			// stray indicator (after #PCDATA etc.)
		case "#PCDATA":
			ed.pcdata = true
		default:
			c := childRef{name: t}
			if i+1 < len(toks) && (toks[i+1] == "?" || toks[i+1] == "*") {
				c.optional = true
				i++
			}
			ed.children = append(ed.children, c)
		}
	}
	if len(groupStack) != 0 {
		return nil, fmt.Errorf("dtd: unbalanced parens in %q", body)
	}
	return ed, nil
}

// --- attlists --------------------------------------------------------------

type attDecl struct {
	name     string
	typ      string // CDATA, ID, IDREF, IDREFS, NMTOKEN, enumeration
	optional bool
}

func parseAttlist(body string) (string, []attDecl, error) {
	fields, err := tokenizeAttlist(body)
	if err != nil {
		return "", nil, err
	}
	if len(fields) == 0 {
		return "", nil, fmt.Errorf("dtd: ATTLIST without element name")
	}
	elem := fields[0]
	var atts []attDecl
	i := 1
	for i < len(fields) {
		if i+1 >= len(fields) {
			return "", nil, fmt.Errorf("dtd: truncated ATTLIST for %q", elem)
		}
		a := attDecl{name: fields[i], typ: fields[i+1]}
		i += 2
		if a.typ == "(" { // enumeration
			a.typ = "ENUM"
			for i < len(fields) && fields[i] != ")" {
				i++
			}
			i++ // consume ")"
		}
		// Default declaration: #REQUIRED, #IMPLIED, #FIXED value, or a
		// literal default value.
		if i < len(fields) {
			switch fields[i] {
			case "#REQUIRED":
				i++
			case "#IMPLIED":
				a.optional = true
				i++
			case "#FIXED":
				i += 2
			default:
				if strings.HasPrefix(fields[i], `"`) || strings.HasPrefix(fields[i], "'") {
					a.optional = true
					i++
				}
			}
		}
		atts = append(atts, a)
	}
	return elem, atts, nil
}

// tokenizeAttlist splits an ATTLIST body into names, punctuation and
// quoted literals (quotes kept). A literal missing its closing quote is an
// error.
func tokenizeAttlist(body string) ([]string, error) {
	var out []string
	i := 0
	for i < len(body) {
		c := body[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '(' || c == ')' || c == '|':
			out = append(out, string(c))
			i++
		case c == '"' || c == '\'':
			j := i + 1
			for j < len(body) && body[j] != c {
				j++
			}
			if j == len(body) {
				return nil, fmt.Errorf("dtd: unterminated quoted value in ATTLIST %q", body)
			}
			out = append(out, body[i:j+1])
			i = j + 1
		default:
			j := i
			for j < len(body) && !unicode.IsSpace(rune(body[j])) &&
				!strings.ContainsRune("()|", rune(body[j])) {
				j++
			}
			out = append(out, body[i:j])
			i = j
		}
	}
	return out, nil
}

// --- building --------------------------------------------------------------

type builder struct {
	schema   *model.Schema
	elems    map[string]*elemDecl
	attlists map[string][]attDecl

	idKeys  []*model.Element // key elements for ID attributes
	idrefs  []*model.Element // IDREF attribute elements
	created map[string]*model.Element
}

func attType(t string) model.DataType {
	switch t {
	case "ID":
		return model.DTID
	case "IDREF", "IDREFS":
		return model.DTIDRef
	case "ENUM":
		return model.DTEnum
	default:
		return model.DTString
	}
}

// build materializes element name under parent. DTDs may be recursive; a
// cycle in the content model is an error, matching the paper's deferral of
// recursive types.
func (b *builder) build(name string, parent *model.Element, onPath map[string]bool, asRoot bool) error {
	if onPath[name] {
		return fmt.Errorf("dtd: recursive content model through %q", name)
	}
	onPath[name] = true
	defer delete(onPath, name)

	node := parent
	if !asRoot {
		node = b.schema.AddChild(parent, name, model.KindElement)
	}
	if b.created == nil {
		b.created = map[string]*model.Element{}
	}
	if _, ok := b.created[name]; !ok {
		b.created[name] = node
	}
	for _, a := range b.attlists[name] {
		attr := b.schema.AddChild(node, a.name, model.KindAttribute)
		attr.Type = attType(a.typ)
		attr.Optional = a.optional
		switch a.typ {
		case "ID":
			attr.IsKey = true
			key := b.schema.AddChild(node, name+"-id-key", model.KindKey)
			key.NotInstantiated = true
			if err := b.schema.Aggregate(key, attr); err != nil {
				return err
			}
			b.idKeys = append(b.idKeys, key)
		case "IDREF", "IDREFS":
			b.idrefs = append(b.idrefs, attr)
		}
	}
	ed := b.elems[name]
	if ed == nil {
		return nil // declared only via ATTLIST or referenced but undeclared
	}
	if ed.pcdata && len(ed.children) == 0 && node.Type == model.DTNone {
		node.Type = model.DTString
	}
	for _, c := range ed.children {
		if err := b.build(c.name, node, onPath, false); err != nil {
			return err
		}
		kids := node.Children()
		kids[len(kids)-1].Optional = c.optional
	}
	return nil
}

// refints reifies each IDREF attribute as a RefInt referencing every ID
// key in the document (the reference relationship is 1:n).
func (b *builder) refints() error {
	for _, ref := range b.idrefs {
		if len(b.idKeys) == 0 {
			continue
		}
		owner := ref.Parent()
		name := fmt.Sprintf("%s-%s-ref", owner.Name, ref.Name)
		ri, err := b.schema.AddRefInt(name, []*model.Element{ref}, b.idKeys[0])
		if err != nil {
			return err
		}
		for _, k := range b.idKeys[1:] {
			if err := b.schema.Refer(ri, k); err != nil {
				return err
			}
		}
	}
	return nil
}
