package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Fingerprint returns a stable content hash of the schema: two schemas
// built the same way (same element names, kinds, types, flags, and
// relationship structure, in the same creation order) share a fingerprint,
// regardless of how or when they were constructed. The schema repository
// (internal/registry) keys prepared schemas by name + fingerprint so that
// re-registering identical content is an idempotent no-op while changed
// content replaces the stale entry.
//
// The hash covers everything that influences matching: the schema name,
// and per element (in creation/ID order) its name, description, kind,
// type, flags, containment parent, and the IsDerivedFrom, aggregation and
// reference edges. It is a content identity, not a semantic one — element
// order matters, exactly as it does to the matcher's tie-breaking.
func Fingerprint(s *Schema) string {
	fw := fpWriter{h: sha256.New()}
	fw.string(s.Name)
	for _, e := range s.elements {
		fw.string(e.Name)
		fw.string(e.Description)
		fw.int(int(e.Kind))
		fw.int(int(e.Type))
		fw.bool(e.Optional)
		fw.bool(e.NotInstantiated)
		fw.bool(e.IsKey)
		if e.parent != nil {
			fw.int(e.parent.id)
		} else {
			fw.int(-1)
		}
		// Children are hashed as an ordered edge list, not only via the
		// parent pointer: Contain attaches in call order, so two schemas
		// can create identical elements yet order siblings differently —
		// which changes post-order indexes and hence tie-breaking.
		fw.edges(e.children)
		fw.edges(e.derivedFrom)
		fw.edges(e.aggregates)
		fw.edges(e.references)
	}
	fw.flush()
	sum := fw.h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// fpWriter feeds the fingerprint's byte stream to the hash through a
// small fixed buffer, flushed whenever the next value would not fit: one
// hash Write per buffer's worth of bytes rather than one per value. A
// string is its length (as an int) then its bytes, an int its 8-byte
// little-endian two's complement, a bool one byte (1 or 0) and an edge
// list its length then the target IDs.
type fpWriter struct {
	h   hash.Hash
	n   int
	buf [512]byte
}

func (w *fpWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *fpWriter) int(v int) {
	if w.n+8 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], uint64(int64(v)))
	w.n += 8
}

func (w *fpWriter) bool(v bool) {
	if w.n == len(w.buf) {
		w.flush()
	}
	w.buf[w.n] = 0
	if v {
		w.buf[w.n] = 1
	}
	w.n++
}

func (w *fpWriter) string(s string) {
	w.int(len(s))
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		k := copy(w.buf[w.n:], s)
		w.n += k
		s = s[k:]
	}
}

func (w *fpWriter) edges(es []*Element) {
	w.int(len(es))
	for _, e := range es {
		w.int(e.id)
	}
}
