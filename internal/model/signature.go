package model

import "sort"

// Signature is the cheap per-schema summary the repository's candidate
// pruning stage compares instead of running the full linguistic+structural
// pipeline: the schema's element and leaf counts plus a sorted, deduplicated
// bag of normalized tokens drawn from element names and descriptions.
// Like Fingerprint it is derived once per schema and then immutable; unlike
// Fingerprint it is a similarity summary, not an identity — two schemas
// with equal signatures are likely related, not necessarily identical.
//
// The token strings themselves come from the linguistic analysis (the
// already-cached per-element token sets; see linguistic.SchemaInfo), so the
// model package only defines the container and the comparison arithmetic.
type Signature struct {
	// Elements is the schema graph's element count.
	Elements int
	// Leaves is the expanded schema tree's leaf count — the size that
	// dominates matching cost and the axis the size-bucket comparison uses.
	Leaves int
	// Tokens is the sorted, deduplicated union of the schema's normalized
	// name and description tokens.
	Tokens []string
}

// NewSignature builds a signature, sorting and deduplicating the token
// bag in place.
func NewSignature(elements, leaves int, tokens []string) Signature {
	sort.Strings(tokens)
	out := tokens[:0]
	for i, t := range tokens {
		if i == 0 || t != tokens[i-1] {
			out = append(out, t)
		}
	}
	return Signature{Elements: elements, Leaves: leaves, Tokens: out}
}

// SizeSim compares the two schemas' sizes as the ratio of their leaf
// counts, min/max in [0,1] — the smooth form of size bucketing: schemas in
// the same size bracket score near 1, an order-of-magnitude mismatch scores
// near 0. Leaf counts are offset by one so empty trees compare as equal
// rather than dividing by zero.
func (s Signature) SizeSim(o Signature) float64 {
	a, b := float64(s.Leaves+1), float64(o.Leaves+1)
	if a > b {
		a, b = b, a
	}
	return a / b
}

// TokenJaccard is the Jaccard similarity |A∩B| / |A∪B| of the two token
// bags. Both sides are sorted and unique (NewSignature guarantees it), so
// the intersection is a single linear merge. Two empty bags score 0: with
// no linguistic evidence the signature asserts nothing.
func (s Signature) TokenJaccard(o Signature) float64 {
	if len(s.Tokens) == 0 && len(o.Tokens) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(s.Tokens) && j < len(o.Tokens) {
		switch {
		case s.Tokens[i] == o.Tokens[j]:
			inter++
			i++
			j++
		case s.Tokens[i] < o.Tokens[j]:
			i++
		default:
			j++
		}
	}
	union := len(s.Tokens) + len(o.Tokens) - inter
	return float64(inter) / float64(union)
}

// affinityTokenWeight blends the two signature coordinates: token overlap
// carries most of the signal (it approximates the linguistic phase), size
// similarity the rest (a leaf-count mismatch caps the structural phase's
// normalized score).
const affinityTokenWeight = 0.75

// Affinity is the pruning score in [0,1]: a weighted blend of token
// Jaccard and size similarity. It is intentionally crude — its only job is
// to rank likely candidates ahead of unlikely ones so the expensive tree
// match runs on a fraction of the repository (the registry's pruned
// strategy; cupidbench records the ranking quality as recall@K).
func (s Signature) Affinity(o Signature) float64 {
	return affinityTokenWeight*s.TokenJaccard(o) + (1-affinityTokenWeight)*s.SizeSim(o)
}
