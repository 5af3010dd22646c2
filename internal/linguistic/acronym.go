package linguistic

// Acronym detection: a heuristic complement to the thesaurus's explicit
// acronym table (§5.1 expands acronyms by lookup; the paper's §10 calls
// for "integrating Cupid transparently with an off-the-shelf thesaurus",
// and unknown project-specific acronyms are the common gap). When one
// name's content reduces to a single short token whose letters are exactly
// the initials of the other name's content tokens — UOM vs Unit Of
// Measure, PO vs Purchase Order — the pair is credited with
// acronymStrength even though no dictionary entry exists.
//
// The heuristic is deliberately conservative: the acronym must be 2-6
// letters, the expansion must have the same number of content+common
// tokens as the acronym has letters, and every initial must match in
// order. It is applied as a floor on the name similarity, so explicit
// thesaurus entries (which normalize to 1.0) always dominate.

const (
	acronymMinLen   = 2
	acronymMaxLen   = 6
	acronymStrength = 0.75
)

// acronymKey is a word of at most acronymMaxLen bytes, held inline: its
// bytes, zero-padded, and its length (0 for none).
type acronymKey struct {
	b [acronymMaxLen]byte
	n uint8
}

// acronymKeys returns what the initialism check reads of a name's words
// (its raw content and common tokens, in order; common words participate
// in initialisms: UoM = Unit *of* Measure). one is the only word, when
// there is exactly one and its length fits an acronym; initials are the
// first bytes of the words, when their number fits an acronym and none is
// empty. Each is empty otherwise. One name is an initialism of another
// exactly when its one is the other's initials.
func acronymKeys(ts TokenSet) (one, initials acronymKey) {
	n, whole := 0, true
	for _, t := range ts.Tokens {
		if t.Type != TokenContent && t.Type != TokenCommon {
			continue
		}
		if n == 0 && len(t.Raw) >= acronymMinLen && len(t.Raw) <= acronymMaxLen {
			one.n = uint8(copy(one.b[:], t.Raw))
		}
		if t.Raw == "" {
			whole = false
		} else if n < acronymMaxLen {
			initials.b[n] = t.Raw[0]
		}
		n++
	}
	if n != 1 {
		one = acronymKey{}
	}
	if n >= acronymMinLen && n <= acronymMaxLen && whole {
		initials.n = uint8(n)
	} else {
		initials = acronymKey{}
	}
	return one, initials
}

// acronymSim returns acronymStrength when either name is an initialism of
// the other, else 0.
func acronymSim(x, y *nameRec) float64 {
	if (x.one.n != 0 && x.one == y.initials) || (y.one.n != 0 && y.one == x.initials) {
		return acronymStrength
	}
	return 0
}
