package linguistic

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/thesaurus"
)

// The name table: normalized names, name interning, and the
// name-similarity memo behind LSim.
//
// Normalization (§5.1) is a pure function of a name and the thesaurus, and
// a repository's names repeat across schemas. So the table keeps the token
// set of every raw element name Analyze has normalized, and every
// SchemaInfo holding that name gets the same one: a schema's analysis is
// then mostly lookups, and registered schemas share their token storage
// instead of each keeping a copy. Category keyword sets (a concept tag, a
// data-type keyword) are kept the same way.
//
// ns(m1,m2) (§5.3) is a pure function of two normalized names under one
// thesaurus and parameter set, and one probe matched against hundreds of
// candidates asks for the same name pairs again and again. So every
// distinct normalized name (an element token set or a category keyword
// set) gets a dense integer ID per Matcher, and NameSimTS is memoized by
// the (ID, ID) pair. IDs are assigned lazily, once per SchemaInfo, on its
// first LSim: Analyze (and with it Prepare, registration and recovery)
// never pays for them. Below the memo, thesaurus similarities of content
// token pairs are cached too.
//
// The memo is organized by row: one small lock-free open-addressing table
// per first name ID x, keyed by the second ID y. LSim asks for one name of
// the first schema against every name of the second in turn, so it fetches
// that name's row once and each lookup then probes one small table that
// stays in cache, where a single table over all pairs would send every
// lookup to a random slot of up to 16 MiB.
//
// Every cache here is bounded by a fixed entry cap and resets when it
// overflows. The values are pure, so a reset only costs recomputation and
// never changes a result. All of them belong to one name table, valid for
// the parameters and thesaurus it was built under; changing either starts
// a fresh table. A reset of the interner invalidates the IDs, so it starts
// a fresh table too; a SchemaInfo remembers which table its IDs belong to
// and re-interns when that table is gone.

// Default cache caps. The name cap bounds the interner (one map entry per
// distinct normalized name); the memo cap bounds the memoized pairs of one
// memo generation, across all its rows; the token cap bounds the
// token-pair thesaurus cache; the norm cap bounds the normalized-name
// cache.
const (
	defaultNameCap  = 1 << 17
	defaultMemoCap  = 1 << 19
	defaultTokenCap = 1 << 16
	// defaultNormCap entries of at most normMaxBytes each: the cache
	// retains at most 32 MiB, whatever names it is fed. Typical schema
	// names (two or three words) cost about 600 bytes an entry by
	// normEntryBytes, so a full cache of them holds about 19 MiB.
	defaultNormCap = 1 << 15
	// memoRowSlots is a fresh row's size (16 bytes a slot); a row doubles
	// whenever it is three quarters full.
	memoRowSlots = 8
)

// nameTable is one generation of normalized names, interned names and
// their memoized similarities, valid for the parameters and thesaurus it
// was built under.
type nameTable struct {
	p  Params
	th *thesaurus.Thesaurus

	norms *stripedMap[normKey, TokenSet]
	sims  *stripedMap[tokenPair, float64]

	mu       sync.Mutex // guards ids
	ids      map[string]int32
	maxNames int

	memo    atomic.Pointer[memoGen]
	memoCap int
}

// newMatcherNormCap is the norm cap NewMatcher gives a matcher:
// defaultNormCap, unless a test shrinks it to force resets in matchers
// that other packages build.
var newMatcherNormCap = defaultNormCap

// normKey names one cached token set: a raw element name, or a category
// keyword, whose one-token set is built by its kind.
type normKey struct {
	kind normKind
	name string
}

type normKind uint8

const (
	normName    normKind = iota // Normalize(name)
	normConcept                 // a concept tag, unstemmed
	normType                    // a data-type keyword, stemmed
)

func (k normKey) stripe() uint32 { return fnv1a(2166136261^uint32(k.kind), k.name) }

// tokenPair is an ordered pair of raw content tokens.
type tokenPair [2]string

func (k tokenPair) stripe() uint32 {
	h := fnv1a(2166136261, k[0])
	h = (h ^ 0xff) * 16777619 // separator so ("ab","c") != ("a","bc")
	return fnv1a(h, k[1])
}

func fnv1a(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// normMaxBytes is the most an entry of the normalized-name cache may
// retain (normEntryBytes); a larger token set is returned uncached.
const normMaxBytes = 1 << 10

// normEntryBytes bounds what caching ts under name retains: the map slot
// and the per-type partition headers, the name, and per token its two
// copies (Tokens and the partition), its acronym word and its strings.
func normEntryBytes(name string, ts TokenSet) int {
	n := 256 + len(name) + 96*len(ts.Tokens)
	for _, tok := range ts.Tokens {
		n += len(tok.Raw) + len(tok.Stem)
	}
	return n
}

// tokenSet returns the token set of k under the table's thesaurus: the
// cached one, shared by every caller, or on a miss a new one — Normalize's
// for a name, a one-token keyword set for a category keyword — cached when
// it is within normMaxBytes. Callers must not modify it.
func (t *nameTable) tokenSet(k normKey) TokenSet {
	if ts, ok := t.norms.get(k); ok {
		return ts
	}
	var ts TokenSet
	switch k.kind {
	case normName:
		ts = Normalize(k.name, t.th)
	case normConcept:
		ts = TokenSet{Tokens: []Token{{Raw: k.name, Stem: k.name, Type: TokenContent}}}.Partitioned()
	case normType:
		ts = TokenSet{Tokens: []Token{{Raw: k.name, Stem: thesaurus.Stem(k.name), Type: TokenContent}}}.Partitioned()
	}
	if normEntryBytes(k.name, ts) <= normMaxBytes {
		// The key is cloned so the cache never pins the buffer a parser
		// sliced the name from.
		t.norms.put(normKey{kind: k.kind, name: strings.Clone(k.name)}, ts)
	}
	return ts
}

// mapStripes is the stripe count of a stripedMap. Power of two; 64 stripes
// keep contention negligible at any realistic GOMAXPROCS while costing a
// few KB of empty maps.
const mapStripes = 64

// stripeKey is a map key that picks its own stripe (any hash of the key).
type stripeKey interface {
	comparable
	stripe() uint32
}

// stripedMap is a map split into stripes, each under its own RWMutex, so
// goroutines working on different keys rarely share a lock. Each stripe
// holds at most stripeCap entries and empties itself when full.
type stripedMap[K stripeKey, V any] struct {
	stripes   [mapStripes]mapStripe[K, V]
	stripeCap int
}

type mapStripe[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

func newStripedMap[K stripeKey, V any](capacity int) *stripedMap[K, V] {
	c := &stripedMap[K, V]{stripeCap: max(1, capacity/mapStripes)}
	for i := range c.stripes {
		c.stripes[i].m = make(map[K]V)
	}
	return c
}

func (c *stripedMap[K, V]) get(k K) (V, bool) {
	st := &c.stripes[k.stripe()&(mapStripes-1)]
	st.mu.RLock()
	v, ok := st.m[k]
	st.mu.RUnlock()
	return v, ok
}

func (c *stripedMap[K, V]) put(k K, v V) {
	st := &c.stripes[k.stripe()&(mapStripes-1)]
	st.mu.Lock()
	if len(st.m) >= c.stripeCap {
		clear(st.m)
	}
	st.m[k] = v
	st.mu.Unlock()
}

// infoIDs is the name IDs of one SchemaInfo under one name table: per
// element (indexed by element ID) and per category.
type infoIDs struct {
	tab   *nameTable
	elems []int32
	cats  []int32
}

// memoGen is one generation of the name memo: a directory of rows indexed
// by first name ID, each row created on its first lookup. The directory
// grows with the IDs looked up, not to the name cap up front. used counts
// the pairs inserted across all rows; once it reaches limit (the memo cap)
// the generation is replaced by an empty one.
type memoGen struct {
	dir   atomic.Pointer[memoDir]
	used  atomic.Int64
	limit int64
}

type memoDir struct {
	rows []atomic.Pointer[memoRow]
}

// memoRow is a fixed-size, insert-only open-addressing hash table from a
// second name ID to its similarity with the row's first name. Lookups are
// one or a few atomic loads and never allocate or lock. A slot is written
// once per row: an inserter reserves room under limit (three quarters of
// the slots, so every probe sequence reaches an empty slot), claims an
// empty slot by CAS to its key with the pending bit set, stores the value,
// then publishes the bare key, so a reader that sees the bare key also sees
// the value. Readers treat pending slots as occupied by another key.
type memoRow struct {
	slots []memoSlot
	shift uint // 64 - log2(len(slots))
	used  atomic.Int32
	limit int32
}

type memoSlot struct {
	key, val atomic.Uint64
}

// memoPending marks a slot whose value is still being written.
const memoPending = 1 << 63

func newMemoGen(limit int) *memoGen {
	g := &memoGen{limit: int64(limit)}
	g.dir.Store(new(memoDir))
	return g
}

// newMemoRow returns an empty row of slots slots (a power of two).
func newMemoRow(slots int) *memoRow {
	return &memoRow{
		slots: make([]memoSlot, slots),
		shift: uint(64 - bits.TrailingZeros(uint(slots))),
		limit: int32(slots / 4 * 3),
	}
}

// memoKey maps a second name ID to a nonzero key below memoPending.
func memoKey(y int32) uint64 {
	return uint64(uint32(y)) + 1
}

func (r *memoRow) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> r.shift
}

func (r *memoRow) get(key uint64) (float64, bool) {
	mask := uint64(len(r.slots) - 1)
	for i := r.home(key); ; i = (i + 1) & mask {
		switch r.slots[i].key.Load() {
		case key:
			return math.Float64frombits(r.slots[i].val.Load()), true
		case 0:
			return 0, false
		}
	}
}

// put outcomes.
const (
	putAdded = iota
	putPresent
	putFull
)

// put inserts key → v. A key already present or being inserted is left
// alone (putPresent): its value is the same pure function of the key. A
// full row reports putFull and the caller grows it.
func (r *memoRow) put(key uint64, v float64) int {
	mask := uint64(len(r.slots) - 1)
	for i := r.home(key); ; i = (i + 1) & mask {
		s := &r.slots[i]
		k := s.key.Load()
		if k == 0 {
			if r.used.Add(1) > r.limit {
				r.used.Add(-1)
				return putFull
			}
			if s.key.CompareAndSwap(0, key|memoPending) {
				s.val.Store(math.Float64bits(v))
				s.key.Store(key)
				return putAdded
			}
			r.used.Add(-1)
			k = s.key.Load()
		}
		if k == key || k == key|memoPending {
			return putPresent
		}
	}
}

// slot returns the directory slot of first name x's row in g, growing the
// directory when x is past its end.
func (g *memoGen) slot(x int32) *atomic.Pointer[memoRow] {
	for {
		d := g.dir.Load()
		if int(x) < len(d.rows) {
			return &d.rows[x]
		}
		nd := &memoDir{rows: make([]atomic.Pointer[memoRow], max(int(x)+1, 2*len(d.rows)))}
		for i := range d.rows {
			nd.rows[i].Store(d.rows[i].Load())
		}
		g.dir.CompareAndSwap(d, nd)
	}
}

// row returns first name x's row in g, creating it on first use.
func (g *memoGen) row(x int32) *memoRow {
	s := g.slot(x)
	if r := s.Load(); r != nil {
		return r
	}
	s.CompareAndSwap(nil, newMemoRow(memoRowSlots))
	return s.Load()
}

// grow replaces x's full row old with one twice its size holding old's
// entries, and returns x's current row. Calls in flight keep old until
// they refetch; an entry they add to it after the copy is dropped, which
// only costs recomputation. old may be missing from the directory (it was
// installed in one replaced meanwhile); its copy then takes the empty
// slot.
func (g *memoGen) grow(x int32, old *memoRow) *memoRow {
	s := g.slot(x)
	cur := s.Load()
	if cur != old && cur != nil {
		return cur
	}
	nr := newMemoRow(2 * len(old.slots))
	for i := range old.slots {
		if k := old.slots[i].key.Load(); k != 0 && k&memoPending == 0 {
			nr.put(k, math.Float64frombits(old.slots[i].val.Load()))
		}
	}
	s.CompareAndSwap(cur, nr)
	return s.Load()
}

// table returns the matcher's current name table, replacing it when P or
// Th changed since it was built (so mutating them between calls can never
// serve a stale cached token set or memoized value).
func (m *Matcher) table() *nameTable {
	t := m.names.Load()
	if t != nil && t.p == m.P && t.th == m.Th {
		return t
	}
	return m.replaceTable(t)
}

// replaceTable installs a fresh, empty name table in place of old. Racing
// callers converge on whichever table won the swap.
func (m *Matcher) replaceTable(old *nameTable) *nameTable {
	nt := &nameTable{p: m.P, th: m.Th,
		norms: newStripedMap[normKey, TokenSet](m.normCap), sims: newStripedMap[tokenPair, float64](m.tokenCap),
		ids: map[string]int32{}, maxNames: m.nameCap, memoCap: m.memoCap}
	nt.memo.Store(newMemoGen(m.memoCap))
	if m.names.CompareAndSwap(old, nt) {
		return nt
	}
	if cur := m.names.Load(); cur != nil && cur.p == m.P && cur.th == m.Th {
		return cur
	}
	return nt
}

// idsOf returns si's name IDs under table t, interning its names on first
// use. It returns nil when t has no room left for them.
func (t *nameTable) idsOf(si *SchemaInfo) *infoIDs {
	if cur := si.ids.Load(); cur != nil && cur.tab == t {
		return cur
	}
	ids := &infoIDs{tab: t, elems: make([]int32, len(si.Tokens)), cats: make([]int32, len(si.Categories))}
	var buf []byte
	t.mu.Lock()
	defer t.mu.Unlock()
	intern := func(ts TokenSet) (int32, bool) {
		buf = nameKey(buf[:0], ts)
		if id, ok := t.ids[string(buf)]; ok {
			return id, true
		}
		if len(t.ids) >= t.maxNames {
			return 0, false
		}
		id := int32(len(t.ids))
		t.ids[string(buf)] = id
		return id, true
	}
	for i, ts := range si.Tokens {
		id, ok := intern(ts)
		if !ok {
			return nil
		}
		ids.elems[i] = id
	}
	for i, c := range si.Categories {
		id, ok := intern(c.Keywords)
		if !ok {
			return nil
		}
		ids.cats[i] = id
	}
	si.ids.Store(ids)
	return ids
}

// nameKey appends an injective encoding of the token sequence — type, raw
// form and stem of every token, length-prefixed — which is everything
// NameSimTS reads.
func nameKey(buf []byte, ts TokenSet) []byte {
	for _, tok := range ts.Tokens {
		buf = append(buf, byte(tok.Type))
		buf = binary.AppendUvarint(buf, uint64(len(tok.Raw)))
		buf = append(buf, tok.Raw...)
		buf = binary.AppendUvarint(buf, uint64(len(tok.Stem)))
		buf = append(buf, tok.Stem...)
	}
	return buf
}

// nameSims answers NameSimTS for the names of one schema pair through the
// memo. With nil IDs (the pair alone has more distinct names than the name
// cap) it computes every value directly.
type nameSims struct {
	tab    *nameTable
	ia, ib *infoIDs
}

// simsFor prepares the memoized name similarities of a and b, interning
// their names (and resetting a full name table) as needed.
func (m *Matcher) simsFor(a, b *SchemaInfo) nameSims {
	t := m.table()
	ia, ib := t.idsOf(a), t.idsOf(b)
	if ia == nil || ib == nil {
		t = m.replaceTable(t)
		ia, ib = t.idsOf(a), t.idsOf(b)
	}
	if ia == nil || ib == nil {
		return nameSims{tab: t}
	}
	return nameSims{tab: t, ia: ia, ib: ib}
}

// rowSims is ns of one name of the first schema (an element's or a
// category's) against the names of the second, through the first name's
// memo row: fetched on the first lookup, then followed as it grows and
// across a generation reset. A rowSims is one goroutine's.
type rowSims struct {
	tab  *nameTable
	memo bool // false: compute every value directly
	ts   TokenSet
	x    int32
	ys   []int32 // the second schema's element or category IDs

	gen *memoGen
	row *memoRow
}

// elementRow is the row of element i of a against b's elements.
func (s *nameSims) elementRow(a *SchemaInfo, i int) rowSims {
	r := rowSims{tab: s.tab, memo: s.ia != nil, ts: a.Tokens[i]}
	if r.memo {
		r.x, r.ys = s.ia.elems[i], s.ib.elems
	}
	return r
}

// categoryRow is the row of category i of a against b's categories.
func (s *nameSims) categoryRow(a *SchemaInfo, i int) rowSims {
	r := rowSims{tab: s.tab, memo: s.ia != nil, ts: a.Categories[i].Keywords}
	if r.memo {
		r.x, r.ys = s.ia.cats[i], s.ib.cats
	}
	return r
}

// sim returns ns of the row's name and ts2, the name of element (or
// category) j of the second schema.
func (r *rowSims) sim(j int, ts2 TokenSet) float64 {
	if !r.memo {
		return r.tab.nameSim(r.ts, ts2)
	}
	if r.row == nil {
		r.fetch()
	}
	key := memoKey(r.ys[j])
	if v, ok := r.row.get(key); ok {
		return v
	}
	v := r.tab.nameSim(r.ts, ts2)
	r.store(key, v)
	return v
}

// fetch loads the row from the name table's current memo generation.
func (r *rowSims) fetch() {
	r.gen = r.tab.memo.Load()
	r.row = r.gen.row(r.x)
}

// store memoizes key → v: it reserves the pair under the generation's cap
// (starting a fresh generation when this one is full) and grows the row
// when it is full.
func (r *rowSims) store(key uint64, v float64) {
	if !r.gen.reserve() {
		r.tab.memo.CompareAndSwap(r.gen, newMemoGen(r.tab.memoCap))
		if r.fetch(); !r.gen.reserve() {
			return // the fresh generation is full already
		}
	}
	for {
		switch r.row.put(key, v) {
		case putAdded:
			return
		case putPresent:
			r.gen.used.Add(-1)
			return
		}
		r.row = r.gen.grow(r.x, r.row)
	}
}

// reserve counts one more pair against the generation's cap, reporting
// false (and counting nothing) when it is reached.
func (g *memoGen) reserve() bool {
	if g.used.Add(1) > g.limit {
		g.used.Add(-1)
		return false
	}
	return true
}
