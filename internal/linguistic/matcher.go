package linguistic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/thesaurus"
)

// Params controls the comparison step (§5.3).
type Params struct {
	// Weights are the per-token-type weights w_i of the name-similarity
	// formula. Content and concept tokens get greater weight than numbers,
	// symbols and common words. They must sum to 1 (Validate checks).
	Weights [NumTokenTypes]float64
	// Thns is the name-similarity threshold for category compatibility
	// (Table 1: typical value 0.5; used merely for pruning the number of
	// element-to-element comparisons).
	Thns float64
	// DisableAcronymDetection turns off the initialism heuristic (UOM vs
	// UnitOfMeasure matching without a thesaurus entry). On by default.
	DisableAcronymDetection bool
}

// DefaultParams returns the parameter values used throughout the paper's
// experiments.
func DefaultParams() Params {
	// Content and concept tokens carry the weight; numbers and symbols
	// contribute a little; common words (articles, prepositions,
	// conjunctions) are marked to be *ignored* during comparison (§5.1,
	// "Elimination"), so their weight is zero.
	var w [NumTokenTypes]float64
	w[TokenContent] = 0.6
	w[TokenConcept] = 0.25
	w[TokenNumber] = 0.1
	w[TokenCommon] = 0.0
	w[TokenSymbol] = 0.05
	return Params{Weights: w, Thns: 0.5}
}

// Validate reports parameter errors (weights must be non-negative and sum
// to 1 within a small tolerance; Thns must be in [0,1]).
func (p Params) Validate() error {
	sum := 0.0
	for i, w := range p.Weights {
		if w < 0 {
			return fmt.Errorf("linguistic: weight %s is negative", TokenType(i))
		}
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("linguistic: weights sum to %.3f, want 1", sum)
	}
	if p.Thns < 0 || p.Thns > 1 {
		return fmt.Errorf("linguistic: thns %.3f out of [0,1]", p.Thns)
	}
	return nil
}

// Matcher performs linguistic matching with one thesaurus and one
// parameter set. Everything it derives from names lives in one name table
// per (P, Th) generation (memo.go): one record per normalized name,
// holding the name's token set (shared by every SchemaInfo that contains
// the name), its dense ID and its tokens' IDs, indexed by raw name and by
// token set; and the lock-free memos of name-pair and token-pair
// similarities. The table is bounded by one byte budget and the memos by
// their pair caps, so a Matcher IS safe for concurrent use with bounded
// memory: Analyze, NameSimTS and LSim may be called from many goroutines
// at once (LSim itself fans its inner loops out over a bounded worker
// pool). A table that fills its budget is replaced by an empty one.
// Changing P or Th starts a fresh name table too. Do not mutate them while
// matching is in flight, and do not mutate a thesaurus a Matcher has used:
// install a new one instead.
type Matcher struct {
	Th *thesaurus.Thesaurus
	P  Params

	names atomic.Pointer[nameTable]
	// budget bounds the bytes a name table retains; memoCap and tokenCap
	// bound the pairs of a name-memo and a token-pair-memo generation (the
	// defaults of memo.go unless a test shrinks them).
	budget, memoCap, tokenCap int
}

// NewMatcher returns a matcher over the given thesaurus (nil means an
// empty thesaurus) with default parameters.
func NewMatcher(th *thesaurus.Thesaurus) *Matcher {
	if th == nil {
		th = thesaurus.New()
	}
	return &Matcher{Th: th, P: DefaultParams(),
		budget: newMatcherBudget, memoCap: defaultMemoCap, tokenCap: defaultTokenCap}
}

// NameSimTS computes the name similarity of two normalized token sets as
// the weighted mean of the per-token-type name similarities (§5.3):
//
//	ns(m1,m2) = Σ_i w_i·ns(T1i,T2i)·(|T1i|+|T2i|) / Σ_i w_i·(|T1i|+|T2i|)
//
// Both sets are interned in the matcher's name table (memo.go), and ns is
// computed from their records, as a memo miss of LSim computes it.
func (m *Matcher) NameSimTS(ts1, ts2 TokenSet) float64 {
	var x, y *nameRec
	t := m.withRoom(func(t *nameTable) bool {
		x, y = t.recOf(ts1), t.recOf(ts2)
		return x != nil && y != nil
	})
	return t.nameSim(x, y)
}

// nameSim is ns of two names interned in the table, under its parameters
// and thesaurus.
func (t *nameTable) nameSim(x, y *nameRec) float64 {
	var num, den float64
	for tt := TokenType(0); tt < NumTokenTypes; tt++ {
		t1, t2 := x.ofType(tt), y.ofType(tt)
		size := float64(len(t1) + len(t2))
		if size == 0 {
			continue
		}
		w := t.p.Weights[tt]
		if w == 0 {
			continue // adds exactly 0 to both sums
		}
		num += w * t.setSim(tt, t1, t2) * size
		den += w * size
	}
	if den == 0 {
		return 0
	}
	ns := num / den
	if !t.p.DisableAcronymDetection {
		if a := acronymSim(x, y); a > ns {
			ns = a
		}
	}
	return ns
}

// setSim is ns(T1, T2) over two lists of type-tt tokens: the average of
// the best similarity of each token with a token in the other set (paper
// §5.2). Empty-versus-nonempty scores 0; the caller skips empty-versus-
// empty, which is undefined. Tokens compare by surface equality — a
// number matches only the same number, a symbol the same symbol, a
// concept the same concept — except content tokens, which go through the
// thesaurus (which scores a word 1 against itself). One sweep over the
// token pairs finds the best of both sides; each side's bests are then
// summed in token order.
func (t *nameTable) setSim(tt TokenType, t1, t2 []tokID) float64 {
	var buf [16]float64
	var best2 []float64
	if len(t2) <= len(buf) {
		best2 = buf[:len(t2)]
	} else {
		best2 = make([]float64, len(t2))
	}
	sum := 0.0
	for _, a := range t1 {
		best := 0.0
		for j, b := range t2 {
			s := 0.0
			switch {
			case a.raw == b.raw:
				s = 1
			case tt == TokenContent:
				s = t.contentSim(a, b)
			}
			if s > best {
				best = s
			}
			if s > best2[j] {
				best2[j] = s
			}
		}
		sum += best
	}
	for _, best := range best2 {
		sum += best
	}
	return sum / float64(len(t1)+len(t2))
}

// contentSim returns sim of two content tokens with different raw forms:
// 1 for equal stems, else the thesaurus similarity of the raw forms (with
// substring fallback), memoized by their raw IDs.
func (t *nameTable) contentSim(a, b tokID) float64 {
	if a.stem == b.stem {
		return 1
	}
	lo, hi := a.raw, b.raw
	if lo > hi {
		lo, hi = hi, lo
	}
	r := t.pairs.row(int32(lo))
	if s, ok := r.get(int32(hi)); ok {
		return s
	}
	t.mu.RLock()
	wlo, whi := t.strs[lo], t.strs[hi]
	t.mu.RUnlock()
	s := t.th.Sim(wlo, whi) // symmetric: the order of the pair does not matter
	r.put(int32(hi), s)
	return s
}

// Category is a group of schema elements identified by a set of keywords
// (paper §5.2). Compatible categories (name-similar keyword sets) prune
// the element-to-element comparisons.
type Category struct {
	// Name identifies the category in diagnostics, e.g. "concept:money",
	// "type:number", "container:PO.POBillTo".
	Name string
	// Keywords is the normalized keyword set that identifies the category.
	Keywords TokenSet
	// Members lists the IDs of the member elements.
	Members []int
}

// SchemaInfo is the result of linguistic analysis of one schema: the
// normalized token set of every element and the element categories.
type SchemaInfo struct {
	Schema *model.Schema
	// Tokens is indexed by element ID. The token sets are the analyzing
	// matcher's shared ones (every SchemaInfo with the same name holds the
	// same storage): read-only.
	Tokens []TokenSet
	// Categories in deterministic creation order.
	Categories []Category
	// memberCats maps element ID -> indexes into Categories.
	memberCats [][]int
	// descToks lazily caches the filtered description token set per
	// element (see Matcher.descTokens); nil entries mean no usable
	// description.
	descOnce sync.Once
	descToks []*TokenSet
	// ids holds the element and category name IDs and records under the
	// analyzing matcher's name table (memo.go): assigned by Analyze, and
	// re-assigned by the first LSim after that table is replaced.
	ids atomic.Pointer[infoIDs]
}

// CategoriesOf returns the indexes of the categories the element belongs
// to.
func (si *SchemaInfo) CategoriesOf(id int) []int { return si.memberCats[id] }

// Analyze normalizes every element name of the schema and clusters the
// elements into categories: one per concept tag, one per broad data type,
// and one per container (§5.2). Elements tagged not-instantiated are
// excluded from categories — the paper chooses not to linguistically match
// elements with no significant name, such as keys.
//
// Names resolve through the matcher's name table: a name it has seen
// before costs one lookup and yields the record, and with it the token
// set, every other SchemaInfo holding that name shares. The SchemaInfo
// keeps the records' IDs for LSim. A category's keyword set and name are
// built once, when its first member joins. Memberships are collected first
// and then laid out exactly: the categories in one slice of their own
// length, and every category's Members and every element's category list
// carved from one backing array per schema, so an analysis retains no
// spare capacity and no per-category or per-element allocation. A table
// that fills its budget midway is replaced and the schema analyzed again
// on the fresh one, so all of a SchemaInfo's IDs belong to one table.
func (m *Matcher) Analyze(s *model.Schema) *SchemaInfo {
	var si *SchemaInfo
	m.withRoom(func(t *nameTable) bool {
		si = t.analyze(s)
		return si != nil
	})
	return si
}

// analyze is Analyze on table t; nil when t has no room left for the
// schema's names.
func (t *nameTable) analyze(s *model.Schema) *SchemaInfo {
	si := &SchemaInfo{
		Schema:     s,
		Tokens:     make([]TokenSet, s.Len()),
		memberCats: make([][]int, s.Len()),
	}
	ids := &infoIDs{gen: t.gen, elems: make([]int32, s.Len()), elemRecs: make([]*nameRec, s.Len())}
	// Names seen before, under one read lock; then the others one by one.
	t.mu.RLock()
	for _, e := range s.Elements() {
		ids.elemRecs[e.ID()] = t.names[normKey{name: e.Name}]
	}
	t.mu.RUnlock()
	for _, e := range s.Elements() {
		id := e.ID()
		rec := ids.elemRecs[id]
		if rec == nil {
			if rec = t.name(normKey{name: e.Name}); rec == nil {
				return nil
			}
			ids.elemRecs[id] = rec
		}
		si.Tokens[id], ids.elems[id] = rec.ts, rec.id
	}
	// The categories in creation order, each with its keyword set's record.
	type newCat struct {
		Category
		rec *nameRec
	}
	var cats []newCat
	full := false
	// In join order, so each element's joins are contiguous. Most elements
	// join two or three categories (their parent's, their own or their
	// type's, and any concept's).
	joins := make([]membership, 0, 3*s.Len())
	catIndex := map[catKey]int{}
	addMember := func(key catKey, id int) {
		idx, ok := catIndex[key]
		if !ok {
			idx = len(cats)
			catIndex[key] = idx
			var c newCat
			switch {
			case key.container != nil:
				c.rec = ids.elemRecs[key.container.ID()]
				c.Name = "container:" + key.container.Path()
			case key.kw.kind == normConcept:
				c.rec = t.name(key.kw)
				c.Name = "concept:" + key.kw.name
			default:
				c.rec = t.name(key.kw)
				c.Name = "type:" + key.kw.name
			}
			if c.rec == nil {
				full = true
			} else {
				c.Keywords = c.rec.ts
			}
			cats = append(cats, c)
		}
		joins = append(joins, membership{elem: id, cat: idx})
	}
	for _, e := range s.Elements() {
		// Keys and other insignificant names are skipped; RefInts and
		// views stay in, because schema-tree augmentation reifies them as
		// join-view nodes that can be matched (§8.3).
		if e.NotInstantiated && e.Kind != model.KindRefInt && e.Kind != model.KindView {
			continue
		}
		id := e.ID()
		// Concept categories: one per unique concept tag in the schema.
		for _, tok := range si.Tokens[id].Tokens {
			if tok.Type == TokenConcept {
				addMember(catKey{kw: normKey{kind: normConcept, name: tok.Raw}}, id)
			}
		}
		// Data-type categories for elements carrying a broad leaf type.
		if kw := e.Type.CategoryKeyword(); kw != "" {
			addMember(catKey{kw: normKey{kind: normType, name: kw}}, id)
		}
		// Container categories: the containment parent groups its children
		// under its own (normalized) name.
		if p := e.Parent(); p != nil {
			addMember(catKey{container: p}, id)
		}
		// A container is identified by its own keyword too: it belongs to
		// the category it defines. Two containers are then comparable when
		// their own names are similar even if their parents' names are not
		// (e.g. Item under POLines vs Item under Items), and the root —
		// which has no parent — still lands in a category of its own.
		if len(e.Children()) > 0 || len(e.DerivedFrom()) > 0 {
			addMember(catKey{container: e}, id)
		}
	}
	if full {
		return nil
	}
	ids.cats = make([]int32, len(cats))
	ids.catRecs = make([]*nameRec, len(cats))
	for i, c := range cats {
		ids.cats[i], ids.catRecs[i] = c.rec.id, c.rec
	}
	si.ids.Store(ids)
	if len(cats) == 0 {
		return si
	}
	si.Categories = make([]Category, len(cats))
	for i, c := range cats {
		si.Categories[i] = c.Category
	}
	// One array holds both views of the memberships: members grouped by
	// category in the first half, categories grouped by element in the
	// second. Each category's Members starts empty with its exact
	// capacity and fills in join order.
	n := len(joins)
	flat := make([]int, 2*n)
	members, elemCats := flat[:n:n], flat[n:]
	sizes := make([]int, len(cats))
	for _, j := range joins {
		sizes[j.cat]++
	}
	off := 0
	for c, size := range sizes {
		si.Categories[c].Members = members[off : off : off+size]
		off += size
	}
	for k, j := range joins {
		c := &si.Categories[j.cat]
		c.Members = append(c.Members, j.elem)
		elemCats[k] = j.cat
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && joins[hi].elem == joins[lo].elem {
			hi++
		}
		si.memberCats[joins[lo].elem] = elemCats[lo:hi:hi]
		lo = hi
	}
	return si
}

// membership is one element joining one category (an index into the
// schema's categories) during Analyze.
type membership struct {
	elem, cat int
}

// catKey identifies a category within one schema: a container element, or
// else a concept or data-type keyword.
type catKey struct {
	container *model.Element
	kw        normKey
}

// LSim computes the table of linguistic similarity coefficients between the
// elements of two schemas (§5.3):
//
//	lsim(m1,m2) = ns(m1,m2) · max{ns(c1,c2) : c1∈C1, c2∈C2 compatible}
//
// Similarity is zero for element pairs that share no compatible categories.
// The result is indexed (elementID of a, elementID of b). LSim allocates
// its result; LSimInto computes the same table into reusable storage.
func (m *Matcher) LSim(a, b *SchemaInfo) matrix.Matrix {
	return m.LSimInto(matrix.Matrix{}, a, b)
}

// LSimInto is LSim computed over dst's backing store (matrix.Matrix.Reshape:
// dst is reused when it has the capacity, and the result then aliases it).
//
// Every ns goes through the matcher's name memo (memo.go): the names of a
// and b are interned on their first LSim, and each distinct name pair's
// ns is computed once per memo generation, then looked up. The memo
// is organized by the first name, and both loops follow that order: each
// category of a, and each element row of the result, fetches its name's
// memo row once, and all of that row's lookups against b's names then
// stay inside one small table. The category scale of every element pair
// (max is order-independent) is built in the result table itself and then
// multiplied in place by the pair's name similarity, so the table is the
// only working memory. The element rows fan out over the par worker pool,
// each writing its own matrix row, so the result is bit-identical to a
// sequential sweep of per-pair NameSimTS calls.
func (m *Matcher) LSimInto(dst matrix.Matrix, a, b *SchemaInfo) matrix.Matrix {
	sims := m.simsFor(a, b)
	lsim := dst.Reshape(a.Schema.Len(), b.Schema.Len())
	// Scale per element pair: the best compatible category pair.
	for i, ca := range a.Categories {
		names := sims.categoryRow(i)
		for j, cb := range b.Categories {
			ns := names.sim(j)
			if ns < m.P.Thns {
				continue
			}
			for _, ma := range ca.Members {
				row := lsim.Row(ma)
				for _, mb := range cb.Members {
					if ns > row[mb] {
						row[mb] = ns
					}
				}
			}
		}
	}
	par.For(lsim.Rows(), func(i int) {
		row := lsim.Row(i)
		names := sims.elementRow(i)
		for j, s := range row {
			if s > 0 {
				row[j] = names.sim(j) * s
			}
		}
	})
	return lsim
}
