// Package textutil provides the low-level text processing primitives that
// every SciLens indicator builds on: tokenisation, sentence segmentation,
// syllable counting, stemming, stop-word filtering and n-gram extraction.
//
// The package is deliberately self-contained (stdlib only) and allocation
// conscious: the hot paths are called once per article and once per social
// media posting on the ingestion path.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single lexical unit produced by Tokenize. The zero value is an
// empty token.
type Token struct {
	// Text is the token surface form exactly as it appeared in the input.
	Text string
	// Start is the byte offset of the first byte of the token in the input.
	Start int
	// End is the byte offset one past the last byte of the token.
	End int
	// Kind classifies the token (word, number, URL, punctuation, ...).
	Kind TokenKind
}

// TokenKind classifies tokens produced by Tokenize.
type TokenKind uint8

// Token kinds, in rough order of how often they occur in news text.
const (
	// KindWord is a run of letters (possibly with internal apostrophes or
	// hyphens, as in "don't" or "peer-reviewed").
	KindWord TokenKind = iota
	// KindNumber is a run of digits, possibly with internal separators
	// ("1,234.5", "2020-01-15").
	KindNumber
	// KindURL is anything that looks like a URL or bare domain.
	KindURL
	// KindMention is a social-media @mention.
	KindMention
	// KindHashtag is a social-media #hashtag.
	KindHashtag
	// KindPunct is a punctuation run.
	KindPunct
	// KindEmoji is a symbol/emoji rune outside usual punctuation.
	KindEmoji
)

// String returns a human readable name for the token kind.
func (k TokenKind) String() string {
	switch k {
	case KindWord:
		return "word"
	case KindNumber:
		return "number"
	case KindURL:
		return "url"
	case KindMention:
		return "mention"
	case KindHashtag:
		return "hashtag"
	case KindPunct:
		return "punct"
	case KindEmoji:
		return "emoji"
	default:
		return "unknown"
	}
}

// IsWordLike reports whether the token carries lexical content (words and
// numbers), as opposed to punctuation, URLs or symbols.
func (t Token) IsWordLike() bool {
	return t.Kind == KindWord || t.Kind == KindNumber
}

// Lower returns the lower-cased surface form of the token. Tokens that are
// already lower-case ASCII — most word tokens in running text — are
// returned as-is without allocating.
func (t Token) Lower() string { return lowerFast(t.Text) }

// Tokenize splits text into tokens. It recognises words (with internal
// apostrophes/hyphens), numbers (with internal , . - : separators), URLs,
// @mentions, #hashtags, punctuation runs and emoji. It never returns tokens
// with empty text, and token offsets are strictly increasing.
func Tokenize(text string) []Token {
	return appendTokens(make([]Token, 0, tokenEstimate(text)), text)
}

// tokenEstimate is the token capacity Tokenize reserves for text: about
// one token per five bytes of running prose.
func tokenEstimate(text string) int { return len(text)/5 + 4 }

// appendTokens appends the tokens of text to dst, as Tokenize returns
// them, and returns the extended slice.
func appendTokens(tokens []Token, text string) []Token {
	i := 0
	n := len(text)
	for i < n {
		r, size := decodeRune(text[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case looksLikeURLAt(text, i):
			end := scanURL(text, i)
			tokens = append(tokens, Token{Text: text[i:end], Start: i, End: end, Kind: KindURL})
			i = end
		case r == '@' && i+size < n && isWordRune(peekRune(text[i+size:])):
			end := scanWord(text, i+size)
			tokens = append(tokens, Token{Text: text[i:end], Start: i, End: end, Kind: KindMention})
			i = end
		case r == '#' && i+size < n && isWordRune(peekRune(text[i+size:])):
			end := scanWord(text, i+size)
			tokens = append(tokens, Token{Text: text[i:end], Start: i, End: end, Kind: KindHashtag})
			i = end
		case unicode.IsLetter(r):
			end := scanWord(text, i)
			tokens = append(tokens, Token{Text: text[i:end], Start: i, End: end, Kind: KindWord})
			i = end
		case unicode.IsDigit(r):
			end := scanNumber(text, i)
			tokens = append(tokens, Token{Text: text[i:end], Start: i, End: end, Kind: KindNumber})
			i = end
		case unicode.IsPunct(r):
			end := scanPunct(text, i)
			tokens = append(tokens, Token{Text: text[i:end], Start: i, End: end, Kind: KindPunct})
			i = end
		case unicode.IsSymbol(r):
			tokens = append(tokens, Token{Text: text[i : i+size], Start: i, End: i + size, Kind: KindEmoji})
			i += size
		default:
			// Control or unassigned rune: skip it.
			i += size
		}
	}
	return tokens
}

// Words returns the lower-cased surface forms of all word tokens in text.
// It is the common entry point for bag-of-words feature extraction.
func Words(text string) []string {
	toks := Tokenize(text)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if t.Kind == KindWord {
			out = append(out, t.Lower())
		}
	}
	return out
}

// WordCount returns the number of word tokens in text.
func WordCount(text string) int {
	count := 0
	for _, t := range Tokenize(text) {
		if t.Kind == KindWord {
			count++
		}
	}
	return count
}

// decodeRune is a tiny wrapper so that the scanner reads ASCII fast and
// falls back to UTF-8 decoding only for multi-byte sequences. An invalid
// byte decodes as utf8.RuneError of width 1, as in a range loop.
func decodeRune(s string) (rune, int) {
	if len(s) == 0 {
		return 0, 0
	}
	if s[0] < utf8.RuneSelf {
		return rune(s[0]), 1
	}
	return utf8.DecodeRuneInString(s)
}

func peekRune(s string) rune {
	r, _ := decodeRune(s)
	return r
}

func isWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

// scanWord consumes a word starting at offset i: letters/digits with
// internal apostrophes and hyphens allowed when followed by another letter.
func scanWord(text string, i int) int {
	n := len(text)
	for i < n {
		r, size := decodeRune(text[i:])
		if isWordRune(r) {
			i += size
			continue
		}
		if (r == '\'' || r == '’' || r == '-') && i+size < n {
			next, _ := decodeRune(text[i+size:])
			if unicode.IsLetter(next) || unicode.IsDigit(next) {
				i += size
				continue
			}
		}
		break
	}
	return i
}

// scanNumber consumes a number starting at i: digits with internal
// [,.:-/] separators when followed by another digit.
func scanNumber(text string, i int) int {
	n := len(text)
	for i < n {
		r, size := decodeRune(text[i:])
		if unicode.IsDigit(r) {
			i += size
			continue
		}
		switch r {
		case ',', '.', ':', '-', '/', '%':
			if r == '%' {
				return i + size
			}
			if i+size < n {
				next, _ := decodeRune(text[i+size:])
				if unicode.IsDigit(next) {
					i += size
					continue
				}
			}
		}
		break
	}
	return i
}

// scanPunct consumes a run of identical punctuation (so "!!!" and "..." are
// single tokens, which the clickbait detector relies on).
func scanPunct(text string, i int) int {
	first, size := decodeRune(text[i:])
	i += size
	n := len(text)
	for i < n {
		r, s := decodeRune(text[i:])
		if r != first {
			break
		}
		i += s
	}
	return i
}

// looksLikeURLAt reports whether a URL begins at offset i.
func looksLikeURLAt(text string, i int) bool {
	rest := text[i:]
	if c := rest[0] | 0x20; c != 'h' && c != 'w' {
		return false
	}
	if hasFoldPrefix(rest, "http://") || hasFoldPrefix(rest, "https://") || hasFoldPrefix(rest, "www.") {
		return true
	}
	return false
}

func hasFoldPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

// scanURL consumes a URL starting at i: runs until whitespace or a trailing
// punctuation rune that commonly ends a sentence.
func scanURL(text string, i int) int {
	n := len(text)
	end := i
	for end < n {
		r, size := decodeRune(text[end:])
		if unicode.IsSpace(r) || r == '"' || r == '\'' || r == '<' || r == '>' || r == ')' || r == ']' || r == '}' {
			break
		}
		end += size
	}
	// Trim trailing sentence punctuation (".", ",", "!", "?", ";", ":").
	for end > i {
		last := text[end-1]
		if last == '.' || last == ',' || last == '!' || last == '?' || last == ';' || last == ':' {
			end--
			continue
		}
		break
	}
	return end
}
