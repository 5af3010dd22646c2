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
// parameter set. It caches across calls — token-pair similarities in a
// sharded striped-mutex cache, normalized names as dense IDs and their name
// similarities in a lock-free memo (memo.go), every cache bounded — so a
// Matcher IS safe for concurrent use: Analyze, NameSim(TS),
// CompatiblePairs and LSim may be called from many goroutines at once
// (LSim itself fans its inner loops out over a bounded worker pool).
// Changing P or Th between calls starts a fresh name memo; do not mutate
// them while matching is in flight.
type Matcher struct {
	Th *thesaurus.Thesaurus
	P  Params

	simCache *simCache
	names    atomic.Pointer[nameTable]
	// nameCap and memoCap bound the name interner and the memo (powers of
	// two; defaultNameCap and defaultMemoCap unless a test shrinks them).
	nameCap, memoCap int
}

// NewMatcher returns a matcher over the given thesaurus (nil means an
// empty thesaurus) with default parameters.
func NewMatcher(th *thesaurus.Thesaurus) *Matcher {
	if th == nil {
		th = thesaurus.New()
	}
	return &Matcher{Th: th, P: DefaultParams(), simCache: newSimCache(defaultTokenCap),
		nameCap: defaultNameCap, memoCap: defaultMemoCap}
}

// simCacheShards is the stripe count of the token-pair similarity cache.
// Power of two; 64 stripes keep contention negligible at any realistic
// GOMAXPROCS while costing ~3KB of empty maps.
const simCacheShards = 64

// simCache is a striped-mutex map from an ordered token pair to its
// thesaurus similarity. Stripes are selected by FNV-1a hash of the pair,
// so goroutines computing different pairs rarely share a lock. Each stripe
// holds at most shardCap pairs and empties itself when full.
type simCache struct {
	shards   [simCacheShards]simCacheShard
	shardCap int
}

type simCacheShard struct {
	mu sync.RWMutex
	m  map[[2]string]float64
}

func newSimCache(capacity int) *simCache {
	c := &simCache{shardCap: max(1, capacity/simCacheShards)}
	for i := range c.shards {
		c.shards[i].m = make(map[[2]string]float64)
	}
	return c
}

func (c *simCache) shard(key [2]string) *simCacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key[0]); i++ {
		h = (h ^ uint32(key[0][i])) * 16777619
	}
	h = (h ^ 0xff) * 16777619 // separator so ("ab","c") != ("a","bc")
	for i := 0; i < len(key[1]); i++ {
		h = (h ^ uint32(key[1][i])) * 16777619
	}
	return &c.shards[h&(simCacheShards-1)]
}

func (c *simCache) get(key [2]string) (float64, bool) {
	sh := c.shard(key)
	sh.mu.RLock()
	s, ok := sh.m[key]
	sh.mu.RUnlock()
	return s, ok
}

func (c *simCache) put(key [2]string, v float64) {
	sh := c.shard(key)
	sh.mu.Lock()
	if len(sh.m) >= c.shardCap {
		clear(sh.m)
	}
	sh.m[key] = v
	sh.mu.Unlock()
}

// tokenSim returns sim(t1, t2) for two tokens of the same type. Content
// tokens go through the thesaurus (with substring fallback); the other
// types compare by surface equality — a number matches only the same
// number, a symbol the same symbol, a concept the same concept.
func (m *Matcher) tokenSim(a, b Token) float64 {
	if a.Type != b.Type {
		return 0
	}
	if a.Type != TokenContent {
		if a.Raw == b.Raw {
			return 1
		}
		return 0
	}
	if a.Stem == b.Stem {
		return 1
	}
	key := [2]string{a.Raw, b.Raw}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	if s, ok := m.simCache.get(key); ok {
		return s
	}
	// A concurrent miss on the same pair computes Th.Sim twice; the value
	// is a pure function of the pair, so last-write-wins is deterministic.
	s := m.Th.Sim(a.Raw, b.Raw)
	m.simCache.put(key, s)
	return s
}

// setSim is ns(T1, T2) over two same-type token lists: the average of the
// best similarity of each token with a token in the other set (paper §5.2).
// Empty-versus-nonempty scores 0; empty-versus-empty is undefined and the
// caller skips it.
func (m *Matcher) setSim(t1, t2 []Token) float64 {
	if len(t1)+len(t2) == 0 {
		return 0
	}
	sum := 0.0
	for _, a := range t1 {
		best := 0.0
		for _, b := range t2 {
			if s := m.tokenSim(a, b); s > best {
				best = s
			}
		}
		sum += best
	}
	for _, b := range t2 {
		best := 0.0
		for _, a := range t1 {
			if s := m.tokenSim(a, b); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(t1)+len(t2))
}

// NameSimTS computes the name similarity of two normalized token sets as
// the weighted mean of the per-token-type name similarities (§5.3):
//
//	ns(m1,m2) = Σ_i w_i·ns(T1i,T2i)·(|T1i|+|T2i|) / Σ_i w_i·(|T1i|+|T2i|)
func (m *Matcher) NameSimTS(ts1, ts2 TokenSet) float64 {
	var num, den float64
	for tt := TokenType(0); tt < NumTokenTypes; tt++ {
		t1 := ts1.ByType(tt)
		t2 := ts2.ByType(tt)
		size := float64(len(t1) + len(t2))
		if size == 0 {
			continue
		}
		w := m.P.Weights[tt]
		num += w * m.setSim(t1, t2) * size
		den += w * size
	}
	if den == 0 {
		return 0
	}
	ns := num / den
	if !m.P.DisableAcronymDetection {
		if a := acronymSim(ts1, ts2); a > ns {
			ns = a
		}
	}
	return ns
}

// NameSim normalizes two raw names and returns their name similarity.
func (m *Matcher) NameSim(a, b string) float64 {
	return m.NameSimTS(Normalize(a, m.Th), Normalize(b, m.Th))
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
	// Tokens is indexed by element ID.
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
	// ids caches the element and category name IDs under the owning
	// matcher's current name table (memo.go); assigned on first LSim.
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
func (m *Matcher) Analyze(s *model.Schema) *SchemaInfo {
	si := &SchemaInfo{
		Schema:     s,
		Tokens:     make([]TokenSet, s.Len()),
		memberCats: make([][]int, s.Len()),
	}
	for _, e := range s.Elements() {
		si.Tokens[e.ID()] = Normalize(e.Name, m.Th)
	}
	catIndex := map[string]int{}
	addMember := func(key, display string, keywords TokenSet, id int) {
		idx, ok := catIndex[key]
		if !ok {
			idx = len(si.Categories)
			catIndex[key] = idx
			si.Categories = append(si.Categories, Category{Name: display, Keywords: keywords})
		}
		si.Categories[idx].Members = append(si.Categories[idx].Members, id)
		si.memberCats[id] = append(si.memberCats[id], idx)
	}
	for _, e := range s.Elements() {
		// Keys and other insignificant names are skipped; RefInts and
		// views stay in, because schema-tree augmentation reifies them as
		// join-view nodes that can be matched (§8.3).
		if e.NotInstantiated && e.Kind != model.KindRefInt && e.Kind != model.KindView {
			continue
		}
		id := e.ID()
		ts := si.Tokens[id]
		// Concept categories: one per unique concept tag in the schema.
		for _, tok := range ts.ByType(TokenConcept) {
			addMember("concept:"+tok.Raw, "concept:"+tok.Raw,
				TokenSet{Tokens: []Token{{Raw: tok.Raw, Stem: tok.Raw, Type: TokenContent}}}.Partitioned(), id)
		}
		// Data-type categories for elements carrying a broad leaf type.
		if kw := e.Type.CategoryKeyword(); kw != "" {
			addMember("type:"+kw, "type:"+kw,
				TokenSet{Tokens: []Token{{Raw: kw, Stem: thesaurus.Stem(kw), Type: TokenContent}}}.Partitioned(), id)
		}
		// Container categories: the containment parent groups its children
		// under its own (normalized) name.
		if p := e.Parent(); p != nil {
			key := fmt.Sprintf("container:%d", p.ID())
			addMember(key, "container:"+p.Path(), si.Tokens[p.ID()], id)
		}
		// A container is identified by its own keyword too: it belongs to
		// the category it defines. Two containers are then comparable when
		// their own names are similar even if their parents' names are not
		// (e.g. Item under POLines vs Item under Items), and the root —
		// which has no parent — still lands in a category of its own.
		if len(e.Children()) > 0 || len(e.DerivedFrom()) > 0 {
			key := fmt.Sprintf("container:%d", e.ID())
			addMember(key, "container:"+e.Path(), ts, id)
		}
	}
	return si
}

// CompatiblePairs computes, for two analyzed schemas, the pairs of
// categories whose keyword sets are name-similar above Thns, together with
// the name similarity of the keyword sets (used later to scale lsim).
func (m *Matcher) CompatiblePairs(a, b *SchemaInfo) map[[2]int]float64 {
	sims := m.simsFor(a, b)
	out := make(map[[2]int]float64)
	for i, nb := 0, len(b.Categories); i < len(a.Categories); i++ {
		for j := 0; j < nb; j++ {
			if ns := sims.category(a, b, i, j); ns >= m.P.Thns {
				out[[2]int{i, j}] = ns
			}
		}
	}
	return out
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
// NameSimTS is computed once per memo generation, then looked up. The
// category scale of every element pair (max is order-independent) is built
// in the result table itself and then multiplied in place by the pair's
// name similarity, so the table is the only working memory. The element
// rows fan out over the par worker pool, each writing its own matrix row,
// so the result is bit-identical to a sequential sweep of per-pair
// NameSimTS calls.
func (m *Matcher) LSimInto(dst matrix.Matrix, a, b *SchemaInfo) matrix.Matrix {
	sims := m.simsFor(a, b)
	lsim := dst.Reshape(a.Schema.Len(), b.Schema.Len())
	// Scale per element pair: the best compatible category pair.
	for i, ca := range a.Categories {
		for j, cb := range b.Categories {
			ns := sims.category(a, b, i, j)
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
		for j, s := range row {
			if s > 0 {
				row[j] = sims.element(a, b, i, j) * s
			}
		}
	})
	return lsim
}
