package linguistic

// Signature support: the repository's retrieval stage (internal/registry
// and internal/index) compares whole schemas by the overlap of their
// normalized token bags before paying for the full pipeline. This file
// derives one schema's signature token bag from the analysis the matcher
// has already cached.

// signatureKey is the comparison key of one token: the stem for content
// tokens (matching tokenSim's stem-equality fast path), the raw surface
// form for the other types, prefixed by the type so a concept token never
// collides with an identically spelled content token.
func signatureKey(t Token) string {
	if t.Type == TokenContent {
		return t.Stem
	}
	return t.Type.String() + ":" + t.Raw
}

// SignatureTokens derives the schema-wide signature token bag from an
// analysis: the union of every element's normalized name tokens and
// description tokens (stop words excluded), as comparison keys. The result
// feeds model.NewSignature; sorting and deduplication happen there. The
// token sets are the ones Analyze already computed and cached, so the
// derivation is a linear sweep, not a re-normalization.
func (m *Matcher) SignatureTokens(si *SchemaInfo) []string {
	var out []string
	add := func(ts TokenSet) {
		for _, t := range ts.Tokens {
			if t.Type != TokenCommon {
				out = append(out, signatureKey(t))
			}
		}
	}
	for _, ts := range si.Tokens {
		add(ts)
	}
	for _, ts := range m.descTokens(si) {
		if ts != nil {
			add(*ts)
		}
	}
	return out
}
