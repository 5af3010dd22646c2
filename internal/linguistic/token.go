// Package linguistic implements the first phase of Cupid (paper §5):
// linguistic matching of schema elements based on their names, data types
// and concepts. It proceeds in the paper's three steps — normalization,
// categorization, comparison — and produces a linguistic similarity
// coefficient lsim in [0,1] for every element pair of two schemas.
package linguistic

import (
	"strings"
	"unicode"

	"repro/internal/thesaurus"
)

// TokenType classifies a name token (paper §5.1): each token is one of
// five types, and content/concept tokens carry more weight than numbers,
// symbols and common words during comparison.
type TokenType int

// The five token types of the paper.
const (
	// TokenContent is a regular word (the default).
	TokenContent TokenType = iota
	// TokenConcept is a concept tag attached via the thesaurus (e.g.
	// elements with tokens Price, Cost, Value all gain a Money token).
	TokenConcept
	// TokenCommon is an article, preposition or conjunction; marked to be
	// ignored (down-weighted) during comparison.
	TokenCommon
	// TokenNumber is a numeric token (Street1 -> Street, 1).
	TokenNumber
	// TokenSymbol is a special symbol such as '#'.
	TokenSymbol

	// NumTokenTypes is the number of token types; weight vectors are
	// indexed by TokenType.
	NumTokenTypes
)

var tokenTypeNames = [...]string{
	TokenContent: "content",
	TokenConcept: "concept",
	TokenCommon:  "common",
	TokenNumber:  "number",
	TokenSymbol:  "symbol",
}

// String returns the lower-case name of the token type.
func (tt TokenType) String() string {
	if tt >= 0 && int(tt) < len(tokenTypeNames) {
		return tokenTypeNames[tt]
	}
	return "tokentype?"
}

// Token is a normalized name token.
type Token struct {
	// Raw is the lower-case surface form after tokenization and expansion.
	Raw string
	// Stem is the Porter stem of Raw (equal to Raw for non-content types).
	Stem string
	// Type is the token's classification.
	Type TokenType
}

// TokenSet is the normalized form of one schema element name: the tokens in
// order of appearance (expansion preserves order), including any concept
// tokens appended by tagging.
//
// The token sets Analyze returns (SchemaInfo.Tokens, Category.Keywords)
// are shared: every schema a Matcher analyzes that contains a name holds
// the same storage for it. They are read-only; never write to or append
// to their Tokens.
type TokenSet struct {
	Tokens []Token
}

// ByType returns the tokens of the given type, in order.
func (ts TokenSet) ByType(tt TokenType) []Token {
	var out []Token
	for _, t := range ts.Tokens {
		if t.Type == tt {
			out = append(out, t)
		}
	}
	return out
}

// Len returns the total number of tokens.
func (ts TokenSet) Len() int { return len(ts.Tokens) }

// String renders the token set for diagnostics, e.g.
// "purchase order lines [quantity:concept]".
func (ts TokenSet) String() string {
	var b strings.Builder
	for i, t := range ts.Tokens {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Raw)
		if t.Type != TokenContent {
			b.WriteByte(':')
			b.WriteString(t.Type.String())
		}
	}
	return b.String()
}

// Tokenize splits a schema element name into raw lower-case word tokens
// (paper §5.1, "Tokenization"): boundaries are punctuation, white space,
// case transitions (POLines -> PO, Lines; ContactFunctionCode -> Contact,
// Function, Code), letter/digit transitions (Street1 -> Street, 1), and a
// trailing-acronym rule so CIDXOrder splits into CIDX, Order. Special
// symbols become single-character tokens.
func Tokenize(name string) []string {
	var tokens []string
	runes := []rune(name)
	n := len(runes)
	i := 0
	flush := func(start, end int) {
		if end > start {
			tokens = append(tokens, strings.ToLower(string(runes[start:end])))
		}
	}
	for i < n {
		r := runes[i]
		switch {
		case unicode.IsLetter(r):
			start := i
			if unicode.IsUpper(r) {
				// Consume the upper-case run. If it is followed by a
				// lower-case letter, the run's last upper belongs to the
				// next word (CIDXOrder -> CIDX | Order); otherwise the run
				// itself is an acronym token (UOM, PO).
				j := i
				for j < n && unicode.IsUpper(runes[j]) {
					j++
				}
				switch {
				case j < n && unicode.IsLower(runes[j]) && j-i > 1:
					flush(start, j-1)
					start = j - 1
					i = j
				case j < n && unicode.IsLower(runes[j]):
					i = j // single capital starting a word: Lines
				default:
					flush(start, j) // pure acronym run
					i = j
					continue
				}
			} else {
				i++
			}
			for i < n && unicode.IsLower(runes[i]) {
				i++
			}
			flush(start, i)
		case unicode.IsDigit(r):
			start := i
			for i < n && unicode.IsDigit(runes[i]) {
				i++
			}
			flush(start, i)
		case r == '_' || r == '-' || r == '.' || r == '/' || r == ':' || unicode.IsSpace(r):
			i++ // pure separator
		default:
			tokens = append(tokens, string(r)) // special symbol token
			i++
		}
	}
	return tokens
}

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

func isSymbol(s string) bool {
	if len(s) != 1 {
		return false
	}
	r := rune(s[0])
	return !unicode.IsLetter(r) && !unicode.IsDigit(r)
}

// Normalize runs the full normalization pipeline of §5.1 on a name:
// tokenization, abbreviation/acronym expansion, elimination (stop-words are
// kept but typed TokenCommon so comparison can down-weight them), and
// concept tagging. Content tokens are stemmed.
func Normalize(name string, th *thesaurus.Thesaurus) TokenSet {
	var ts TokenSet
	seenConcepts := map[string]bool{}
	// Whole-name abbreviation lookup first: mixed-case acronyms such as
	// "UoM" would otherwise tokenize as uo|m and miss their entry.
	wholeName := strings.ToLower(strings.TrimSpace(name))
	var add func(word string, allowExpand bool)
	add = func(word string, allowExpand bool) {
		switch {
		case isAllDigits(word):
			ts.Tokens = append(ts.Tokens, Token{Raw: word, Stem: word, Type: TokenNumber})
			return
		case isSymbol(word):
			ts.Tokens = append(ts.Tokens, Token{Raw: word, Stem: word, Type: TokenSymbol})
			return
		}
		if allowExpand {
			if exp := th.Expand(word); exp != nil {
				for _, w := range exp {
					add(w, false) // single-level expansion; avoids cycles
				}
				return
			}
		}
		if th.IsStopword(word) {
			ts.Tokens = append(ts.Tokens, Token{Raw: word, Stem: word, Type: TokenCommon})
			return
		}
		stem := thesaurus.Stem(word)
		ts.Tokens = append(ts.Tokens, Token{Raw: word, Stem: stem, Type: TokenContent})
		if c, ok := th.Concept(word); ok && !seenConcepts[c] {
			seenConcepts[c] = true
			ts.Tokens = append(ts.Tokens, Token{Raw: c, Stem: c, Type: TokenConcept})
		}
	}
	if exp := th.Expand(wholeName); exp != nil {
		for _, w := range exp {
			add(w, false)
		}
		return ts
	}
	for _, w := range Tokenize(name) {
		add(w, true)
	}
	return ts
}
