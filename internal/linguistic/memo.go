package linguistic

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/thesaurus"
)

// The name table: one record per normalized name, and the name-similarity
// memo behind LSim.
//
// Normalization (§5.1) is a pure function of a name and the thesaurus, and
// a repository's names repeat across schemas. So the table keeps one
// record per distinct normalized name (nameRec), holding the name's token
// set, and every SchemaInfo holding that name gets the same one: a
// schema's analysis is then mostly lookups, and registered schemas share
// their token storage instead of each keeping a copy. The records are
// indexed twice, under one RWMutex: by raw name (a normKey: an element
// name, or a concept or data-type category keyword), so Analyze finds a
// name it has seen without normalizing it; and by token-set key (nameKey),
// so two raw names that normalize alike (Qty and Quantity) share one
// record, and a token set that arrives without its raw name (a
// description, a NameSimTS argument, a SchemaInfo from an older table)
// finds its record too.
//
// ns(m1,m2) (§5.3) is a pure function of two normalized names under one
// thesaurus and parameter set, and one probe matched against hundreds of
// candidates asks for the same name pairs again and again. So every record
// has a dense integer ID per table, and ns is memoized by the (ID, ID)
// pair. Analyze gives each SchemaInfo the IDs and records of its element
// names and category keywords (infoIDs), so LSim starts from them.
//
// ns depends only on which tokens two names hold, so a record also holds
// its tokens as dense token IDs: every distinct token string gets one, and
// the record keeps its tokens' raw and stem IDs grouped by type, plus what
// the acronym check reads. A memo miss computes ns from two records,
// comparing integers; thesaurus similarities of content token pairs are
// memoized below it by the pair of raw token IDs. Token IDs, like name
// IDs, belong to one table and never enter the shared token sets.
//
// Both memos are organized by row: one small lock-free open-addressing
// table per first ID x, keyed by the second ID y. LSim asks for one name
// of the first schema against every name of the second in turn, so it
// fetches that name's row once and each lookup then probes one small table
// that stays in cache, where a single table over all pairs would send
// every lookup to a random slot of up to 16 MiB.
//
// Three caps bound the table. Its records, raw-name entries and token
// strings are charged to one byte budget, estimated by recordBytes,
// aliasBytes and tokenBytes; the name memo and the token-pair memo each
// hold a fixed number of pairs per generation and reset when it is
// reached. The values are pure, so a reset only costs recomputation and
// never changes a result. All of it belongs to one name table, valid for
// the parameters and thesaurus it was built under; changing either starts
// a fresh table. A table whose budget is spent starts a fresh table too; a
// SchemaInfo remembers the generation number of the table its IDs belong
// to, not the table, so a replaced table is freed at once, and it
// re-interns its token sets when that table is gone. Whoever holds a table reads IDs,
// records and memos of that table only, so IDs of two generations never
// meet.

// Default caps. The memo cap bounds the memoized name pairs of one memo
// generation, across all its rows; the token cap bounds the memoized token
// pairs the same way.
const (
	defaultMemoCap  = 1 << 19
	defaultTokenCap = 1 << 16
	// memoRowSlots is a fresh row's size (16 bytes a slot); a row doubles
	// whenever it is three quarters full.
	memoRowSlots = 8
)

// newMatcherBudget is the byte budget of the name tables of the matchers
// NewMatcher builds: 32 MiB, whatever names they are fed. Typical schema
// names (two or three words) cost about 650 bytes a name by the estimates
// below, and a 2,000-schema FamilyCorpus repository with 200 probes about
// 1.1 MB. It is a variable only so a test can shrink the budget of
// matchers that other packages build.
var newMatcherBudget = 32 << 20

// nameTable is one generation of name records and their memoized
// similarities, valid for the parameters and thesaurus it was built under.
type nameTable struct {
	p   Params
	th  *thesaurus.Thesaurus
	gen uint64 // unique per table, from tableGens

	mu     sync.RWMutex         // guards names, sets, toks, strs and bytes
	names  map[normKey]*nameRec // by raw name or category keyword
	sets   map[string]*nameRec  // by token-set key (nameKey); IDs are dense in insertion order
	toks   map[string]uint32
	strs   []string // the token strings by ID
	bytes  int      // retained, by the estimates below
	budget int      // the most bytes may reach

	memo  pairMemo // ns of (name ID, name ID)
	pairs pairMemo // thesaurus similarity of (raw token ID, raw token ID)
}

// tableGens numbers the name tables.
var tableGens atomic.Uint64

// normKey names one raw name: an element name, or a category keyword,
// whose one-token set is built by its kind.
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

// The byte estimates charged to a table's budget. They count what the
// table retains and the Go runtime's overhead for it, rounded up.
//
// recordBytes is one record: the nameRec and its map slot, its token set
// (40 bytes a Token, plus the strings) and token IDs (8 bytes a token),
// its key, and the memo row and directory slots its ID may take.
func recordBytes(key []byte, ts TokenSet) int {
	n := 256 + len(key) + 64*len(ts.Tokens)
	for _, tok := range ts.Tokens {
		n += len(tok.Raw) + len(tok.Stem)
	}
	return n
}

// aliasBytes is one raw-name entry: its map slot and the cloned name.
func aliasBytes(name string) int { return 64 + len(name) }

// tokenBytes is one token string: its map slot, its strs element, the
// cloned string, and the token-pair memo row and directory slot its ID
// may take.
func tokenBytes(s string) int { return 128 + len(s) }

// charge counts n more retained bytes, reporting false (and counting
// nothing) when that would pass the budget. t.mu must be held for writing.
func (t *nameTable) charge(n int) bool {
	if n > t.budget-t.bytes {
		return false
	}
	t.bytes += n
	return true
}

// name returns the record of raw name k, shared by every caller: the one
// the table holds, or on a miss the record of its token set — Normalize's
// for an element name, a one-token keyword set for a category keyword —
// found by the set's key or interned. nil when the table has no room left
// for it.
func (t *nameTable) name(k normKey) *nameRec {
	t.mu.RLock()
	rec := t.names[k]
	t.mu.RUnlock()
	if rec != nil {
		return rec
	}
	var ts TokenSet
	switch k.kind {
	case normName:
		ts = Normalize(k.name, t.th)
	case normConcept:
		ts = TokenSet{Tokens: []Token{{Raw: k.name, Stem: k.name, Type: TokenContent}}}
	case normType:
		ts = TokenSet{Tokens: []Token{{Raw: k.name, Stem: thesaurus.Stem(k.name), Type: TokenContent}}}
	}
	var arr [128]byte
	key := nameKey(arr[:0], ts)
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec := t.names[k]; rec != nil {
		return rec // another caller got here first
	}
	rec = t.intern(key, ts)
	if rec == nil || !t.charge(aliasBytes(k.name)) {
		return nil
	}
	// The name is cloned so the table never pins the buffer a parser
	// sliced it from.
	t.names[normKey{kind: k.kind, name: strings.Clone(k.name)}] = rec
	return rec
}

// infoIDs is the name IDs and records of one SchemaInfo under one name
// table, named by its generation number: per element (indexed by element
// ID) and per category. The IDs are kept apart from the records because
// every memo lookup reads an ID and only a miss reads the records.
type infoIDs struct {
	gen      uint64
	elems    []int32
	cats     []int32
	elemRecs []*nameRec
	catRecs  []*nameRec
}

// nameRec is one normalized name: its token set, shared by every
// SchemaInfo holding the name, and what the similarity kernel reads — its
// ID, its tokens' IDs grouped by type (in type order, each group in token
// order), and the keys of the acronym check. It is immutable once
// interned.
type nameRec struct {
	id int32
	// off delimits the groups: toks[off[tt]:off[tt+1]] are the type-tt
	// tokens.
	off           [NumTokenTypes + 1]int32
	one, initials acronymKey
	toks          []tokID
	ts            TokenSet
}

// tokID is one token as interned IDs: its raw form and its stem. Only
// content tokens compare stems; for the other types stem equals raw.
type tokID struct {
	raw, stem uint32
}

// ofType returns the name's type-tt tokens.
func (r *nameRec) ofType(tt TokenType) []tokID {
	return r.toks[r.off[tt]:r.off[tt+1]]
}

// pairMemo is a bounded, lock-free map from an ordered pair of dense IDs
// (x, y) to a float64, organized by row: a directory of rows indexed by x,
// each row created on its first lookup. The directory grows with the IDs
// looked up, not to the cap up front. It holds at most limit pairs per
// generation; once a generation is full it is replaced by an empty one.
type pairMemo struct {
	gen   atomic.Pointer[memoGen]
	limit int
}

func (pm *pairMemo) init(limit int) {
	pm.limit = limit
	pm.gen.Store(newMemoGen(limit))
}

// row returns a cursor on x's row.
func (pm *pairMemo) row(x int32) pairRow {
	return pairRow{pm: pm, x: x}
}

// memoGen is one generation of a pairMemo. used counts the pairs inserted
// across all rows, up to limit.
type memoGen struct {
	dir   atomic.Pointer[memoDir]
	used  atomic.Int64
	limit int64
}

type memoDir struct {
	rows []atomic.Pointer[memoRow]
}

// memoRow is a fixed-size, insert-only open-addressing hash table from a
// second ID to its value with the row's first ID. Lookups are one or a few
// atomic loads and never allocate or lock. A slot is written once per row:
// an inserter reserves room under limit (three quarters of the slots, so
// every probe sequence reaches an empty slot), claims an empty slot by CAS
// to its key with the pending bit set, stores the value, then publishes
// the bare key, so a reader that sees the bare key also sees the value.
// Readers treat pending slots as occupied by another key.
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

// memoKey maps a second ID to a nonzero key below memoPending.
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

// slot returns the directory slot of x's row in g, growing the directory
// when x is past its end.
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

// row returns x's row in g, creating it on first use.
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

// reserve counts one more pair against the generation's cap, reporting
// false (and counting nothing) when it is reached.
func (g *memoGen) reserve() bool {
	if g.used.Add(1) > g.limit {
		g.used.Add(-1)
		return false
	}
	return true
}

// pairRow is a cursor on x's row of a pairMemo: it fetches the row on the
// first lookup, then follows it as it grows and across a generation
// reset. A pairRow is one goroutine's.
type pairRow struct {
	pm  *pairMemo
	x   int32
	gen *memoGen
	row *memoRow
}

// get returns the value of (x, y), if memoized.
func (r *pairRow) get(y int32) (float64, bool) {
	if r.row == nil {
		r.fetch()
	}
	return r.row.get(memoKey(y))
}

// fetch loads the row from the memo's current generation.
func (r *pairRow) fetch() {
	r.gen = r.pm.gen.Load()
	r.row = r.gen.row(r.x)
}

// put memoizes (x, y) → v: it reserves the pair under the generation's
// cap (starting a fresh generation when this one is full) and grows the
// row when it is full. get must have been called first.
func (r *pairRow) put(y int32, v float64) {
	key := memoKey(y)
	if !r.gen.reserve() {
		r.pm.gen.CompareAndSwap(r.gen, newMemoGen(r.pm.limit))
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

// table returns the matcher's current name table, replacing it when P or
// Th changed since it was built (so mutating them between calls can never
// serve a stale token set or memoized value).
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
	nt := newNameTable(m.P, m.Th, m.budget, m.memoCap, m.tokenCap)
	if m.names.CompareAndSwap(old, nt) {
		return nt
	}
	if cur := m.names.Load(); cur != nil && cur.p == m.P && cur.th == m.Th {
		return cur
	}
	return nt
}

// newNameTable returns an empty table.
func newNameTable(p Params, th *thesaurus.Thesaurus, budget, memoCap, tokenCap int) *nameTable {
	t := &nameTable{p: p, th: th, gen: tableGens.Add(1), names: map[normKey]*nameRec{},
		sets: map[string]*nameRec{}, toks: map[string]uint32{}, budget: budget}
	t.memo.init(memoCap)
	t.pairs.init(tokenCap)
	return t
}

// withRoom runs intern, which interns names into a table and reports
// whether the table had room for them all, on the matcher's table; when
// that is full, on a fresh table in its place; and when even a fresh table
// cannot hold them (the names alone pass the budget), on an unbounded
// table of their own that serves this call only. It returns the table
// intern succeeded on.
func (m *Matcher) withRoom(intern func(*nameTable) bool) *nameTable {
	t := m.table()
	if intern(t) {
		return t
	}
	if t = m.replaceTable(t); intern(t) {
		return t
	}
	t = newNameTable(t.p, t.th, math.MaxInt, t.memo.limit, t.pairs.limit)
	intern(t)
	return t
}

// idsOf returns si's name IDs under table t. Analyze assigned them under
// the table current then; after a reset, si's token sets are interned into
// t on first use. It returns nil when t has no room left for them.
func (t *nameTable) idsOf(si *SchemaInfo) *infoIDs {
	if cur := si.ids.Load(); cur != nil && cur.gen == t.gen {
		return cur
	}
	ids := &infoIDs{gen: t.gen,
		elems: make([]int32, len(si.Tokens)), elemRecs: make([]*nameRec, len(si.Tokens)),
		cats: make([]int32, len(si.Categories)), catRecs: make([]*nameRec, len(si.Categories))}
	var buf []byte
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, ts := range si.Tokens {
		buf = nameKey(buf[:0], ts)
		rec := t.intern(buf, ts)
		if rec == nil {
			return nil
		}
		ids.elems[i], ids.elemRecs[i] = rec.id, rec
	}
	for i, c := range si.Categories {
		buf = nameKey(buf[:0], c.Keywords)
		rec := t.intern(buf, c.Keywords)
		if rec == nil {
			return nil
		}
		ids.cats[i], ids.catRecs[i] = rec.id, rec
	}
	si.ids.Store(ids)
	return ids
}

// recOf returns the record of ts under t, interning a copy of ts on first
// use (the caller keeps its own); nil when t has no room left for it.
func (t *nameTable) recOf(ts TokenSet) *nameRec {
	var arr [128]byte
	key := nameKey(arr[:0], ts)
	t.mu.RLock()
	rec := t.sets[string(key)]
	t.mu.RUnlock()
	if rec != nil {
		return rec
	}
	var own TokenSet
	if len(ts.Tokens) > 0 {
		own.Tokens = slices.Clone(ts.Tokens)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.intern(key, own)
}

// recsOf returns the records of sets under t (nil for a nil set),
// interning them on first use; nil when t has no room left for them. The
// sets must be immutable: the records keep them.
func (t *nameTable) recsOf(sets []*TokenSet) []*nameRec {
	recs := make([]*nameRec, len(sets))
	var buf []byte
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, ts := range sets {
		if ts == nil {
			continue
		}
		buf = nameKey(buf[:0], *ts)
		if recs[i] = t.intern(buf, *ts); recs[i] == nil {
			return nil
		}
	}
	return recs
}

// intern returns the record of ts, whose name key is key, interning the
// name, which keeps ts, and its tokens on first use; nil when the table
// has no room left. t.mu must be held for writing.
func (t *nameTable) intern(key []byte, ts TokenSet) *nameRec {
	if rec, ok := t.sets[string(key)]; ok {
		return rec
	}
	if !t.charge(recordBytes(key, ts)) {
		return nil
	}
	rec := &nameRec{id: int32(len(t.sets)), ts: ts, toks: make([]tokID, 0, len(ts.Tokens))}
	for tt := TokenType(0); tt < NumTokenTypes; tt++ {
		for _, tok := range ts.Tokens {
			if tok.Type != tt {
				continue
			}
			raw, ok := t.tokenID(tok.Raw)
			stem := raw
			if ok && tt == TokenContent {
				stem, ok = t.tokenID(tok.Stem)
			}
			if !ok {
				return nil
			}
			rec.toks = append(rec.toks, tokID{raw: raw, stem: stem})
		}
		rec.off[tt+1] = int32(len(rec.toks))
	}
	rec.one, rec.initials = acronymKeys(ts)
	t.sets[string(key)] = rec
	return rec
}

// tokenID returns the ID of token string s, interning it on first use;
// false when the table has no room left. t.mu must be held for writing.
func (t *nameTable) tokenID(s string) (uint32, bool) {
	if id, ok := t.toks[s]; ok {
		return id, true
	}
	if !t.charge(tokenBytes(s)) {
		return 0, false
	}
	id := uint32(len(t.toks))
	// Cloned so the table never pins a caller's buffer.
	s = strings.Clone(s)
	t.toks[s] = id
	t.strs = append(t.strs, s)
	return id, true
}

// nameKey appends an injective encoding of the token sequence — type, raw
// form and stem of every token, length-prefixed — which is everything
// ns reads.
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

// nameSims answers ns for the names of one schema pair through the memo.
type nameSims struct {
	tab    *nameTable
	ia, ib *infoIDs
}

// simsFor prepares the memoized name similarities of a and b: their IDs
// under the current table, re-interning them (and resetting a full name
// table) after a reset.
func (m *Matcher) simsFor(a, b *SchemaInfo) nameSims {
	var ia, ib *infoIDs
	t := m.withRoom(func(t *nameTable) bool {
		ia, ib = t.idsOf(a), t.idsOf(b)
		return ia != nil && ib != nil
	})
	return nameSims{tab: t, ia: ia, ib: ib}
}

// rowSims is ns of one name of the first schema (an element's or a
// category's) against the names of the second, through the first name's
// memo row. A rowSims is one goroutine's.
type rowSims struct {
	tab   *nameTable
	x     *nameRec
	ys    []int32 // the second schema's element or category IDs
	yrecs []*nameRec
	memo  pairRow
}

// elementRow is the row of element i of the first schema against the
// second's elements.
func (s *nameSims) elementRow(i int) rowSims {
	return rowSims{tab: s.tab, x: s.ia.elemRecs[i], ys: s.ib.elems, yrecs: s.ib.elemRecs, memo: s.tab.memo.row(s.ia.elems[i])}
}

// categoryRow is the row of category i of the first schema against the
// second's categories.
func (s *nameSims) categoryRow(i int) rowSims {
	return rowSims{tab: s.tab, x: s.ia.catRecs[i], ys: s.ib.cats, yrecs: s.ib.catRecs, memo: s.tab.memo.row(s.ia.cats[i])}
}

// sim returns ns of the row's name and name j (an element or a category)
// of the second schema.
func (r *rowSims) sim(j int) float64 {
	y := r.ys[j]
	if v, ok := r.memo.get(y); ok {
		return v
	}
	v := r.tab.nameSim(r.x, r.yrecs[j])
	r.memo.put(y, v)
	return v
}
