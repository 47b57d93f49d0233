package textutil

import (
	"strings"
	"unicode"
)

// commonAbbreviations are title and reference abbreviations that end with a
// period but do not terminate a sentence. Lower-cased, without the trailing
// period.
var commonAbbreviations = map[string]bool{
	"dr": true, "mr": true, "mrs": true, "ms": true, "prof": true,
	"sr": true, "jr": true, "st": true, "vs": true, "etc": true,
	"eg": true, "e.g": true, "ie": true, "i.e": true, "et": true,
	"al": true, "fig": true, "figs": true, "no": true, "vol": true,
	"dept": true, "univ": true, "inc": true, "ltd": true, "co": true,
	"jan": true, "feb": true, "mar": true, "apr": true, "jun": true,
	"jul": true, "aug": true, "sep": true, "sept": true, "oct": true,
	"nov": true, "dec": true, "approx": true, "est": true, "gov": true,
}

// scanSentences segments text into sentences, invoking emit for every
// non-empty sentence span. The segmenter understands terminal punctuation
// (. ! ?), ellipses, common abbreviations, decimal numbers and closing
// quotes/parentheses after the terminator. Newlines followed by a blank
// line (paragraph breaks) also terminate sentences, which matters for
// headline-style article bodies.
func scanSentences(text string, emit func(trimmed string, start, end int)) {
	start := 0
	i := 0
	n := len(text)
	flush := func(end int) {
		span := text[start:end]
		trimmed := strings.TrimSpace(span)
		if trimmed != "" {
			emit(trimmed, start, end)
		}
		start = end
	}
	for i < n {
		c := text[i]
		switch c {
		case '.', '!', '?':
			// Consume the full terminator run ("...", "?!").
			j := i
			for j < n && (text[j] == '.' || text[j] == '!' || text[j] == '?') {
				j++
			}
			// Consume closing quotes/brackets.
			for j < n {
				r, size := decodeRune(text[j:])
				if r == '"' || r == '\'' || r == ')' || r == ']' || r == '”' || r == '’' {
					j += size
					continue
				}
				break
			}
			if c == '.' && j-i == 1 && !isSentenceBoundary(text, i) {
				i++
				continue
			}
			flush(j)
			i = j
		case '\n':
			// A paragraph break (blank line) is a hard boundary.
			j := i
			newlines := 0
			for j < n && (text[j] == '\n' || text[j] == '\r' || text[j] == ' ' || text[j] == '\t') {
				if text[j] == '\n' {
					newlines++
				}
				j++
			}
			if newlines >= 2 {
				flush(i)
				start = j
			}
			i = j
		default:
			i++
		}
	}
	if start < n {
		flush(n)
	}
}

// SentenceCount returns the number of sentences in text without building
// the sentence slice.
func SentenceCount(text string) int {
	count := 0
	scanSentences(text, func(string, int, int) { count++ })
	return count
}

// isSentenceBoundary decides whether the period at offset i ends a
// sentence, looking at the preceding token and the following context.
func isSentenceBoundary(text string, i int) bool {
	// Decimal number: "3.14".
	if i > 0 && i+1 < len(text) && isASCIIDigit(text[i-1]) && isASCIIDigit(text[i+1]) {
		return false
	}
	// Preceding abbreviation: walk back over the preceding word.
	j := i
	for j > 0 {
		r := text[j-1]
		if r == ' ' || r == '\n' || r == '\t' || r == '(' || r == '"' {
			break
		}
		j--
	}
	prev := strings.ToLower(strings.TrimRight(text[j:i], "."))
	if commonAbbreviations[prev] {
		return false
	}
	// Single capital letter initial, as in "J. Smith".
	if len(prev) == 1 && prev[0] >= 'a' && prev[0] <= 'z' && i >= 2 && text[i-2] == ' ' {
		return false
	}
	// Following context: end of text or whitespace + capital/quote/digit is a
	// boundary; lower-case continuation is not.
	k := i + 1
	for k < len(text) && (text[k] == ' ' || text[k] == '\t') {
		k++
	}
	if k >= len(text) || text[k] == '\n' {
		return true
	}
	r, _ := decodeRune(text[k:])
	if unicode.IsLower(r) {
		return false
	}
	return true
}

func isASCIIDigit(c byte) bool { return c >= '0' && c <= '9' }
