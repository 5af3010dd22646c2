package linguistic

import (
	"repro/internal/matrix"
	"repro/internal/par"
)

// Description-based matching implements one of the paper's stated
// future-work items (§10: "using schema annotations — textual descriptions
// of schema elements in the data dictionary — for the linguistic
// matching"). Descriptions are normalized with the same pipeline as names
// (tokenization, stop-word elimination, stemming, concept tagging) and
// compared with the IR-flavoured token-set similarity the taxonomy of §3
// mentions for the DELTA system. When enabled (DescriptionWeight > 0) the
// description similarity blends into lsim for element pairs where both
// sides carry a description; pairs without descriptions are unaffected, so
// the feature is strictly additive.

// filterDescTokens keeps the content and concept tokens of a description:
// descriptions are prose, and numbers and symbols in them carry no
// matching signal.
func filterDescTokens(ts TokenSet) TokenSet {
	var out TokenSet
	for _, t := range ts.Tokens {
		if t.Type == TokenContent || t.Type == TokenConcept {
			out.Tokens = append(out.Tokens, t)
		}
	}
	return out
}

// descTokens returns the filtered description token set of every element
// (nil for elements with no usable description), computed once per
// SchemaInfo and cached — a prepared schema reused across many matches
// (internal/registry) pays the description normalization once, not per
// call. Concurrency-safe via sync.Once; the cache is keyed to the
// SchemaInfo, which — like its name Tokens — is tied to the thesaurus of
// the matcher that analyzed it.
func (m *Matcher) descTokens(si *SchemaInfo) []*TokenSet {
	si.descOnce.Do(func() {
		es := si.Schema.Elements()
		out := make([]*TokenSet, len(es))
		for i, e := range es {
			if e.Description == "" {
				continue
			}
			ts := filterDescTokens(Normalize(e.Description, m.Th))
			if len(ts.Tokens) == 0 {
				continue
			}
			out[i] = &ts
		}
		si.descToks = out
	})
	return si.descToks
}

// BlendDescriptions mixes description similarity into an element-level
// lsim matrix in place: for every element pair where both elements carry a
// description,
//
//	lsim' = (1-w)·lsim + w·descSim
//
// with w = weight clamped to [0,1]. Elements without descriptions keep
// their name-based lsim. The blend can rescue pairs whose names carry no
// signal (legacy column names with documented meanings) and demote pairs
// whose names collide but whose documentation disagrees.
func (m *Matcher) BlendDescriptions(a, b *SchemaInfo, lsim matrix.Matrix, weight float64) {
	if weight <= 0 {
		return
	}
	if weight > 1 {
		weight = 1
	}
	ea := a.Schema.Elements()
	eb := b.Schema.Elements()
	descA := m.descTokens(a)
	descB := m.descTokens(b)
	// Each description is interned once per call, and every pair then
	// compares two records.
	var recA, recB []*nameRec
	t := m.withRoom(func(t *nameTable) bool {
		recA, recB = t.recsOf(descA), t.recsOf(descB)
		return recA != nil && recB != nil
	})
	// Rows are independent (each writes its own matrix row), so the pair
	// loop fans out over the worker pool.
	par.For(len(ea), func(i int) {
		if recA[i] == nil {
			return
		}
		row := lsim.Row(i)
		for j := range eb {
			if recB[j] == nil {
				continue
			}
			ds := t.nameSim(recA[i], recB[j])
			row[j] = (1-weight)*row[j] + weight*ds
		}
	})
}
