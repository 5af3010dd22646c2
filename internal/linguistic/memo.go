package linguistic

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/thesaurus"
)

// Name interning and the name-similarity memo behind LSim.
//
// ns(m1,m2) (§5.3) is a pure function of two normalized names under one
// thesaurus and parameter set, and a repository's names repeat across
// schemas: one probe matched against hundreds of candidates asks for the
// same name pairs again and again. So every distinct normalized name (an
// element token set or a category keyword set) gets a dense integer ID per
// Matcher, and NameSimTS is memoized by the (ID, ID) pair in a lock-free
// open-addressing table. IDs are assigned lazily, once per SchemaInfo, on
// its first LSim: Analyze (and with it Prepare, registration and recovery)
// never pays for them.
//
// Every cache here is bounded by a fixed entry cap and resets when it
// overflows. The values are pure, so a reset only costs recomputation and
// never changes a result. A reset of the name table invalidates the IDs, so
// the memo lives inside the table and goes with it; a SchemaInfo remembers
// which table its IDs belong to and re-interns when that table is gone.

// Default cache caps. The name cap bounds the interner (one map entry per
// distinct normalized name); the memo cap bounds the memoized pairs (a
// power of two; 16 bytes a slot, in at most 2·memoCap slots); the token cap
// bounds the token-pair thesaurus cache.
const (
	defaultNameCap  = 1 << 17
	defaultMemoCap  = 1 << 19
	defaultTokenCap = 1 << 16
	// memoMinSlots is a fresh memo's size: small matchers never grow past
	// it, and a busy one doubles up to 2·memoCap slots.
	memoMinSlots = 1 << 12
)

// nameTable is one generation of interned names and their memoized
// similarities, valid for the parameters and thesaurus it was built under.
type nameTable struct {
	p  Params
	th *thesaurus.Thesaurus

	mu       sync.Mutex // guards ids
	ids      map[string]int32
	maxNames int

	memo    atomic.Pointer[memoTable]
	memoCap int
}

// infoIDs is the name IDs of one SchemaInfo under one name table: per
// element (indexed by element ID) and per category.
type infoIDs struct {
	tab   *nameTable
	elems []int32
	cats  []int32
}

// memoTable is a fixed-size, insert-only open-addressing hash table from a
// name-ID pair to its similarity. Lookups are one or a few atomic loads and
// never allocate or lock. A slot is written once per table: an inserter
// claims an empty slot by CAS to its key with the pending bit set, stores
// the value, then publishes the bare key, so a reader that sees the bare
// key also sees the value. Readers treat pending slots as occupied by
// another key. Inserts stop at limit — at most three quarters of the slots
// (concurrent inserters can overshoot by one each) — so every probe
// sequence reaches an empty slot.
type memoTable struct {
	slots []memoSlot
	shift uint // 64 - log2(len(slots))
	used  atomic.Int64
	limit int64
}

type memoSlot struct {
	key, val atomic.Uint64
}

// memoPending marks a slot whose value is still being written.
const memoPending = 1 << 63

// newMemoTable returns an empty table of slots slots (a power of two)
// holding at most min(3/4·slots, maxEntries) pairs.
func newMemoTable(slots, maxEntries int) *memoTable {
	return &memoTable{
		slots: make([]memoSlot, slots),
		shift: uint(64 - bits.TrailingZeros(uint(slots))),
		limit: int64(min(slots/4*3, maxEntries)),
	}
}

// memoKey packs an ordered ID pair into a nonzero key below memoPending
// (NameSimTS is not bit-symmetric, so (x,y) and (y,x) are distinct).
func memoKey(x, y int32) uint64 {
	return (uint64(x)+1)<<32 | uint64(uint32(y))
}

func (t *memoTable) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> t.shift
}

func (t *memoTable) get(key uint64) (float64, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key.Load() {
		case key:
			return math.Float64frombits(t.slots[i].val.Load()), true
		case 0:
			return 0, false
		}
	}
}

// put inserts key → v, reporting false when the table is full (the caller
// then replaces it). A key already present or being inserted is left alone:
// its value is the same pure function of the key.
func (t *memoTable) put(key uint64, v float64) bool {
	if t.used.Load() >= t.limit {
		return false
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		k := s.key.Load()
		if k == 0 {
			if s.key.CompareAndSwap(0, key|memoPending) {
				s.val.Store(math.Float64bits(v))
				s.key.Store(key)
				t.used.Add(1)
				return true
			}
			k = s.key.Load()
		}
		if k == key || k == key|memoPending {
			return true
		}
	}
}

// table returns the matcher's current name table, replacing it when P or
// Th changed since it was built (so mutating them between calls can never
// serve a stale memoized value).
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
	nt := &nameTable{p: m.P, th: m.Th, ids: map[string]int32{}, maxNames: m.nameCap, memoCap: m.memoCap}
	nt.memo.Store(newMemoTable(min(memoMinSlots, 2*m.memoCap), m.memoCap))
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
// memo. With a nil memo (the pair alone has more distinct names than the
// name cap) it computes every value directly.
type nameSims struct {
	m      *Matcher
	tab    *nameTable
	memo   *memoTable
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
		return nameSims{m: m}
	}
	return nameSims{m: m, tab: t, memo: t.memo.Load(), ia: ia, ib: ib}
}

func (s *nameSims) sim(x, y int32, ts1, ts2 TokenSet) float64 {
	key := memoKey(x, y)
	if v, ok := s.memo.get(key); ok {
		return v
	}
	v := s.m.NameSimTS(ts1, ts2)
	if !s.memo.put(key, v) {
		s.tab.growMemo(s.memo)
	}
	return v
}

// growMemo replaces a full memo with one twice its size holding the old
// entries, or — at the cap of 2·memoCap slots — with an empty one of the
// same size. Calls in flight keep the old table until they finish; an entry
// they add to it after the copy is dropped, which only costs recomputation.
func (t *nameTable) growMemo(old *memoTable) {
	if t.memo.Load() != old {
		return // already replaced
	}
	if len(old.slots) >= 2*t.memoCap {
		t.memo.CompareAndSwap(old, newMemoTable(len(old.slots), t.memoCap))
		return
	}
	nt := newMemoTable(2*len(old.slots), t.memoCap)
	for i := range old.slots {
		if k := old.slots[i].key.Load(); k != 0 && k&memoPending == 0 {
			nt.put(k, math.Float64frombits(old.slots[i].val.Load()))
		}
	}
	t.memo.CompareAndSwap(old, nt)
}

// element returns ns of element i of a and element j of b.
func (s *nameSims) element(a, b *SchemaInfo, i, j int) float64 {
	if s.memo == nil {
		return s.m.NameSimTS(a.Tokens[i], b.Tokens[j])
	}
	return s.sim(s.ia.elems[i], s.ib.elems[j], a.Tokens[i], b.Tokens[j])
}

// category returns ns of category i of a and category j of b.
func (s *nameSims) category(a, b *SchemaInfo, i, j int) float64 {
	if s.memo == nil {
		return s.m.NameSimTS(a.Categories[i].Keywords, b.Categories[j].Keywords)
	}
	return s.sim(s.ia.cats[i], s.ib.cats[j], a.Categories[i].Keywords, b.Categories[j].Keywords)
}
