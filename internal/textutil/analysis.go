package textutil

import (
	"strings"
	"sync"
)

// WordInfo is the per-word product of the shared analysis pass: the
// lower-cased surface form, the Porter stem, the syllable estimate and the
// stop-word flag, plus the index of the originating token in
// Analysis.Tokens.
type WordInfo struct {
	// TokenIndex is the index of this word's token in Analysis.Tokens.
	TokenIndex int
	// Lower is the lower-cased surface form.
	Lower string
	// Stem is the Porter stem of Lower.
	Stem string
	// Syllables is the syllable estimate for the word.
	Syllables int
	// Stop reports whether the word is an English stop word.
	Stop bool
}

// Analysis is the single-pass document profile every indicator family
// consumes. One tokenisation pass produces the token stream, lower-cased
// word forms, stems, syllable counts, stop-word flags, sentence count and
// the letter/capitalisation statistics — so readability, lexicon scoring,
// clickbait detection and topic tagging never re-scan or re-stem the same
// text.
//
// Construct with NewAnalysis. A constructed Analysis is immutable except
// for the lazily computed LowerText memo; it is safe for concurrent reads
// but LowerText must not be called from multiple goroutines concurrently
// unless it was forced once beforehand.
//
// An Analysis comes from a pool. Release hands it back once no part of it
// is needed any more; an Analysis that is never released is simply
// collected.
type Analysis struct {
	// Text is the analysed input.
	Text string
	// Tokens is the full token stream (words, numbers, URLs, punctuation).
	Tokens []Token
	// Words holds one entry per word token, in document order.
	Words []WordInfo
	// SentenceCount is the number of sentences in Text.
	SentenceCount int
	// Letters is the number of ASCII letters inside word tokens (the
	// readability formulas' letter statistic).
	Letters int
	// AllCapsWords counts word tokens of length >= 2 with no lower-case
	// letter ("SHOCKING").
	AllCapsWords int
	// CapitalizedWords counts word tokens starting with an upper-case
	// ASCII letter.
	CapitalizedWords int

	lowered    string
	hasLowered bool

	// Scratch of the word loop, kept across pooled uses.
	seen     map[string]int32 // lower-cased form -> index in distinct
	distinct []wordData       // one entry per distinct lower-cased form
	ids      []int32          // per word, its index in distinct
	arena    []byte           // the stems of distinct, back to back
	lowerBuf []byte           // lower-casing scratch for lookups
}

// wordData is the memoised per-unique-word computation: documents repeat
// words constantly, so each distinct lower-cased form is stemmed, syllable
// counted and stop-word checked exactly once per analysis. Its stem is
// arena[start:end] until the word loop ends.
type wordData struct {
	lower      string
	start, end int32
	syll       int32
	stop       bool
}

// maxPooledTokens is the largest token capacity Release returns to the
// pool. An analysis of a longer document is left to the collector, so an
// idle pooled analysis holds at most a few hundred kilobytes of scratch.
const maxPooledTokens = 16384

var analysisPool sync.Pool

// NewAnalysis runs the shared analysis pass over text.
func NewAnalysis(text string) *Analysis {
	a, _ := analysisPool.Get().(*Analysis)
	if a == nil {
		a = &Analysis{}
	}
	a.Text = text
	if est := tokenEstimate(text); cap(a.Tokens) < est {
		a.Tokens = make([]Token, 0, est)
	}
	a.Tokens = appendTokens(a.Tokens, text)
	nw := 0
	for i := range a.Tokens {
		if a.Tokens[i].Kind == KindWord {
			nw++
		}
	}
	if cap(a.Words) < nw {
		a.Words = make([]WordInfo, 0, nw)
		a.ids = make([]int32, 0, nw)
		// Documents repeat words: in news prose a third to a half of
		// them are distinct, and their stems fill under a third of the
		// text.
		a.distinct = make([]wordData, 0, nw/2+4)
		a.arena = make([]byte, 0, len(text)/3)
	}
	if a.seen == nil {
		a.seen = make(map[string]int32, nw)
	}
	for i := range a.Tokens {
		t := &a.Tokens[i]
		if t.Kind != KindWord {
			continue
		}
		allCaps := len(t.Text) >= 2
		for _, r := range t.Text {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
				a.Letters++
			}
			if r >= 'a' && r <= 'z' {
				allCaps = false
			}
		}
		if allCaps {
			a.AllCapsWords++
		}
		if c := t.Text[0]; c >= 'A' && c <= 'Z' {
			a.CapitalizedWords++
		}
		id := a.wordID(t.Text)
		d := &a.distinct[id]
		a.Words = append(a.Words, WordInfo{
			TokenIndex: i,
			Lower:      d.lower,
			Syllables:  int(d.syll),
			Stop:       d.stop,
		})
		a.ids = append(a.ids, id)
	}
	// Every stem is a substring of one string: one allocation per
	// analysis rather than one per distinct word.
	stems := string(a.arena)
	for i := range a.Words {
		d := &a.distinct[a.ids[i]]
		a.Words[i].Stem = stems[d.start:d.end]
	}
	a.SentenceCount = SentenceCount(text)
	return a
}

// wordID returns the index in a.distinct of word's lower-cased form,
// stemming it into the arena on its first occurrence.
func (a *Analysis) wordID(word string) int32 {
	var lower string
	if hasUpperASCIIOnly(word) {
		// A capitalised word repeats ("The", "Smith"): look it up by its
		// lower-cased bytes and build the string only for a new form.
		a.lowerBuf = appendLowerASCII(a.lowerBuf[:0], word)
		if id, ok := a.seen[string(a.lowerBuf)]; ok {
			return id
		}
		lower = string(a.lowerBuf)
	} else {
		lower = lowerFast(word)
		if id, ok := a.seen[lower]; ok {
			return id
		}
	}
	start := len(a.arena)
	a.arena = appendStem(a.arena, lower)
	id := int32(len(a.distinct))
	a.distinct = append(a.distinct, wordData{
		lower: lower,
		start: int32(start),
		end:   int32(len(a.arena)),
		syll:  int32(SyllableCountLower(lower)),
		stop:  IsStopwordLower(lower),
	})
	a.seen[lower] = id
	return id
}

// Release returns the analysis to the pool for a later NewAnalysis to
// reuse. The caller must not read a, nor any slice of it, afterwards;
// strings taken from it (tokens, lower-cased forms, stems) stay valid.
// Release clears every reference to the document first, so the pool pins
// no text.
func (a *Analysis) Release() {
	if cap(a.Tokens) > maxPooledTokens {
		return
	}
	clear(a.Tokens)
	clear(a.Words)
	clear(a.distinct)
	clear(a.seen)
	*a = Analysis{
		Tokens:   a.Tokens[:0],
		Words:    a.Words[:0],
		seen:     a.seen,
		distinct: a.distinct[:0],
		ids:      a.ids[:0],
		arena:    a.arena[:0],
		lowerBuf: a.lowerBuf[:0],
	}
	analysisPool.Put(a)
}

// LowerText returns the lower-cased input, computed once and memoised
// (phrase-level lexicon matching runs on it).
func (a *Analysis) LowerText() string {
	if !a.hasLowered {
		a.lowered = strings.ToLower(a.Text)
		a.hasLowered = true
	}
	return a.lowered
}

// WordStrings returns the lower-cased word forms as a fresh slice — the
// same value Words(a.Text) produces, without re-tokenising.
func (a *Analysis) WordStrings() []string {
	out := make([]string, len(a.Words))
	for i := range a.Words {
		out[i] = a.Words[i].Lower
	}
	return out
}

// AppendContentStems appends the stems of the non-stop-word tokens to dst
// and returns it — the StemAll(ContentWords(text)) preprocessing, served
// from the shared pass.
func (a *Analysis) AppendContentStems(dst []string) []string {
	for i := range a.Words {
		if !a.Words[i].Stop {
			dst = append(dst, a.Words[i].Stem)
		}
	}
	return dst
}

// ContentWordCount returns the number of non-stop-word tokens.
func (a *Analysis) ContentWordCount() int {
	n := 0
	for i := range a.Words {
		if !a.Words[i].Stop {
			n++
		}
	}
	return n
}

// hasUpperASCIIOnly reports whether s is all ASCII with at least one
// upper-case letter, the case appendLowerASCII lower-cases exactly as
// strings.ToLower does.
func hasUpperASCIIOnly(s string) bool {
	upper := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return false
		}
		if 'A' <= c && c <= 'Z' {
			upper = true
		}
	}
	return upper
}

// appendLowerASCII appends the ASCII lower-casing of s to dst.
func appendLowerASCII(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// lowerFast returns strings.ToLower(s) while skipping the scan-and-copy
// for the common all-ASCII-lower-case token.
func lowerFast(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if ('A' <= c && c <= 'Z') || c >= 0x80 {
			return strings.ToLower(s)
		}
	}
	return s
}
