// Package text implements the document preprocessing pipeline the SPRITE
// paper prescribes (§5.2, §6): tokenization, removal of the terms in the
// stop-word list ("The default stop-word-list in Lucene is used"), and
// suffix stripping with the Porter stemming algorithm — the standard,
// well-studied choices in the text-retrieval community the paper invokes.
package text

import (
	"strings"
	"unicode"
)

// Tokenize splits raw text into lowercase alphanumeric tokens. Any run of
// letters or digits is a token; everything else is a separator. This matches
// the behaviour of Lucene's classic LetterTokenizer + LowerCaseFilter for
// English text, the toolchain contemporary with the paper.
func Tokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// luceneStopWords is Lucene's default English stop-word set
// (StandardAnalyzer.STOP_WORDS_SET), used verbatim per §6 of the paper.
var luceneStopWords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "if": true, "in": true,
	"into": true, "is": true, "it": true, "no": true, "not": true, "of": true,
	"on": true, "or": true, "such": true, "that": true, "the": true,
	"their": true, "then": true, "there": true, "these": true, "they": true,
	"this": true, "to": true, "was": true, "will": true, "with": true,
}

// IsStopWord reports whether the (lowercase) token is in Lucene's default
// English stop-word list.
func IsStopWord(tok string) bool { return luceneStopWords[tok] }

// Analyzer bundles the full pipeline with optional knobs. The zero value is
// the paper's default pipeline (stop-word removal on, stemming on, minimum
// token length 2).
type Analyzer struct {
	// KeepStopWords disables stop-word elimination.
	KeepStopWords bool
	// NoStemming disables Porter stemming.
	NoStemming bool
	// MinLength drops tokens shorter than this many bytes after stemming;
	// 0 means the default of 2 (single characters are never useful index
	// terms and would otherwise pollute the DHT).
	MinLength int
}

// Terms runs the pipeline over raw text and returns the processed term
// sequence (duplicates preserved, order preserved).
func (a Analyzer) Terms(s string) []string {
	minLen := a.MinLength
	if minLen == 0 {
		minLen = 2
	}
	toks := Tokenize(s)
	out := toks[:0]
	for _, tok := range toks {
		if !a.KeepStopWords && IsStopWord(tok) {
			continue
		}
		if !a.NoStemming {
			tok = Stem(tok)
		}
		if len(tok) < minLen {
			continue
		}
		out = append(out, tok)
	}
	return out
}

// TermFreq runs the pipeline and returns term frequencies plus the document
// length (total number of surviving tokens). This is exactly the metadata an
// owner peer computes when locally indexing a shared document (§3).
func (a Analyzer) TermFreq(s string) (tf map[string]int, length int) {
	terms := a.Terms(s)
	tf = make(map[string]int, len(terms))
	for _, t := range terms {
		tf[t]++
	}
	return tf, len(terms)
}
