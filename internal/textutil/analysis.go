package textutil

import (
	"strings"
	"sync"
)

// WordInfo is the per-word product of the shared analysis pass: the
// lower-cased surface form, the Porter stem and the stop-word flag, plus
// the index of the originating token in Analysis.Tokens. Syllable counts
// are per form (Analysis.Forms).
type WordInfo struct {
	// TokenIndex is the index of this word's token in Analysis.Tokens.
	TokenIndex int
	// Lower is the lower-cased surface form.
	Lower string
	// Stem is the Porter stem of Lower.
	Stem string
	// Stop reports whether the word is an English stop word.
	Stop bool
}

// Form is one distinct lower-cased word form of an analysed text: its
// stem, syllable estimate and stop-word flag, once per form, and the
// number of word tokens that have it. A family that only sums over words
// sums over forms, weighting each by Count.
type Form struct {
	// Lower is the lower-cased surface form.
	Lower string
	// Stem is the Porter stem of Lower.
	Stem string
	// Syllables is the syllable estimate for the form.
	Syllables int
	// Stop reports whether the form is an English stop word.
	Stop bool
	// Count is the number of word tokens with this form.
	Count int
}

// arenaStem records that the stem of Forms[form] is arena[start:end]
// once the word loop ends.
type arenaStem struct{ form, start, end int32 }

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
	// Forms holds one entry per distinct lower-cased word form, in order
	// of first occurrence; their Counts sum to len(Words).
	Forms []Form
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
	seen     map[string]int32 // lower-cased form -> index in Forms
	ids      []int32          // per word, its index in Forms
	arena    []byte           // the stems the form table does not hold, back to back
	spans    []arenaStem      // where in arena each of those stems is
	lowerBuf []byte           // lower-casing scratch for lookups
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
		// them are distinct.
		a.Forms = make([]Form, 0, nw/2+4)
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
		id := a.formID(t.Text)
		f := &a.Forms[id]
		f.Count++
		a.Words = append(a.Words, WordInfo{
			TokenIndex: i,
			Lower:      f.Lower,
			Stem:       f.Stem,
			Stop:       f.Stop,
		})
		a.ids = append(a.ids, id)
	}
	if len(a.spans) > 0 {
		// The stems the form table does not hold are substrings of one
		// string: one allocation per analysis rather than one per form.
		stems := string(a.arena)
		for _, sp := range a.spans {
			a.Forms[sp.form].Stem = stems[sp.start:sp.end]
		}
		for i := range a.Words {
			a.Words[i].Stem = a.Forms[a.ids[i]].Stem
		}
	}
	a.SentenceCount = SentenceCount(text)
	return a
}

// formID returns the index in a.Forms of word's lower-cased form, adding
// the form on its first occurrence: from the form table when it holds the
// form or admits it, else stemmed into the arena.
func (a *Analysis) formID(word string) int32 {
	var lower string
	var e *formEntry
	if hasUpperASCIIOnly(word) {
		// A capitalised word repeats ("The", "Smith"): look it up by its
		// lower-cased bytes and build the string only for a form the
		// table does not hold.
		a.lowerBuf = appendLowerASCII(a.lowerBuf[:0], word)
		if id, ok := a.seen[string(a.lowerBuf)]; ok {
			return id
		}
		if len(a.lowerBuf) <= maxFormLen {
			// The table holds no longer form, and converting one for the
			// lookup would allocate.
			e = forms.lookup(string(a.lowerBuf))
		}
		if e != nil {
			lower = e.form
		} else {
			lower = string(a.lowerBuf)
		}
	} else {
		lower = lowerFast(word)
		if id, ok := a.seen[lower]; ok {
			return id
		}
		e = forms.lookup(lower)
	}
	if e == nil {
		e = forms.admit(lower)
	}
	id := int32(len(a.Forms))
	switch {
	case e != nil:
		a.Forms = append(a.Forms, Form{Lower: lower, Stem: e.stem, Syllables: int(e.syll), Stop: e.stop})
	case len(lower) < minFormLen:
		// A word of one or two letters is its own stem.
		a.Forms = append(a.Forms, Form{Lower: lower, Stem: lower,
			Syllables: SyllableCountLower(lower), Stop: IsStopwordLower(lower)})
	default:
		start := len(a.arena)
		a.arena = appendStem(a.arena, lower)
		a.spans = append(a.spans, arenaStem{id, int32(start), int32(len(a.arena))})
		a.Forms = append(a.Forms, Form{Lower: lower,
			Syllables: SyllableCountLower(lower), Stop: IsStopwordLower(lower)})
	}
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
	clear(a.Forms)
	clear(a.seen)
	*a = Analysis{
		Tokens:   a.Tokens[:0],
		Words:    a.Words[:0],
		Forms:    a.Forms[:0],
		seen:     a.seen,
		ids:      a.ids[:0],
		arena:    a.arena[:0],
		spans:    a.spans[:0],
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
