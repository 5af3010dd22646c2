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
	// Weights holds one weight per token (parallel to Tokens), or nil for
	// uniformly weighted bags. Weights are *stable*: a deterministic
	// function of the schema alone (token type, not corpus statistics or
	// registration order), so two builds of the same schema's signature are
	// identical. They feed the inverted index's overlap accumulator
	// (internal/index); TokenJaccard and Affinity deliberately ignore them
	// so the pruning semantics are unchanged by weighting.
	Weights []float64
}

// NewSignature builds a uniformly weighted signature (nil Weights, the
// canonical uniform representation), sorting and deduplicating the token
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

// NewWeightedSignature builds a signature from a parallel (token, weight)
// bag, sorting by token and deduplicating in place; a duplicated token
// keeps its largest weight, so the result is independent of input order.
func NewWeightedSignature(elements, leaves int, tokens []string, weights []float64) Signature {
	if len(weights) != len(tokens) {
		panic("model: NewWeightedSignature: len(weights) != len(tokens)")
	}
	order := make([]int, len(tokens))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if tokens[order[i]] != tokens[order[j]] {
			return tokens[order[i]] < tokens[order[j]]
		}
		return weights[order[i]] > weights[order[j]]
	})
	outT := make([]string, 0, len(tokens))
	outW := make([]float64, 0, len(tokens))
	for _, k := range order {
		if n := len(outT); n > 0 && outT[n-1] == tokens[k] {
			continue // duplicate: the first (largest-weight) occurrence won
		}
		outT = append(outT, tokens[k])
		outW = append(outW, weights[k])
	}
	return Signature{Elements: elements, Leaves: leaves, Tokens: outT, Weights: outW}
}

// Weight returns the weight of token i (1 for unweighted signatures).
func (s Signature) Weight(i int) float64 {
	if s.Weights == nil {
		return 1
	}
	return s.Weights[i]
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
