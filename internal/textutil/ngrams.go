package textutil

import (
	"strings"
	"unicode"
)

// NGrams returns all contiguous n-grams of the word slice, each joined with
// a single space. It returns nil when n < 1 or the slice is shorter than n.
func NGrams(words []string, n int) []string {
	if n < 1 || len(words) < n {
		return nil
	}
	out := make([]string, 0, len(words)-n+1)
	for i := 0; i+n <= len(words); i++ {
		out = append(out, strings.Join(words[i:i+n], " "))
	}
	return out
}

// Bigrams is shorthand for NGrams(words, 2).
func Bigrams(words []string) []string { return NGrams(words, 2) }

// CharNGrams returns all n-grams over the runes of s. Used for
// robust (misspelling-tolerant) features in the stance classifier.
func CharNGrams(s string, n int) []string {
	runes := []rune(s)
	if n < 1 || len(runes) < n {
		return nil
	}
	out := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		out = append(out, string(runes[i:i+n]))
	}
	return out
}

// CapitalizedRatio returns the fraction of word tokens that start with an
// upper-case letter. Headlines in ALL CAPS or Title Case score high; the
// clickbait detector uses this.
func CapitalizedRatio(text string) float64 {
	toks := Tokenize(text)
	words, caps := 0, 0
	for _, t := range toks {
		if t.Kind != KindWord {
			continue
		}
		words++
		r, _ := decodeRune(t.Text)
		if r >= 'A' && r <= 'Z' {
			caps++
		}
	}
	if words == 0 {
		return 0
	}
	return float64(caps) / float64(words)
}

// AllCapsWordCount returns the number of word tokens of length >= 2 whose
// letters are all upper-case ("SHOCKING", "NOW").
func AllCapsWordCount(text string) int {
	count := 0
	for _, t := range Tokenize(text) {
		if t.Kind != KindWord || len(t.Text) < 2 {
			continue
		}
		all := true
		for _, r := range t.Text {
			if r >= 'a' && r <= 'z' {
				all = false
				break
			}
		}
		if all {
			count++
		}
	}
	return count
}

// CollapseWhitespace trims s and collapses internal whitespace runs to a
// single space: strings.Join(strings.Fields(s), " ") in one pass, and
// without copying when the trimmed s is already collapsed.
func CollapseWhitespace(s string) string {
	s = strings.TrimSpace(s)
	if isCollapsed(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	field, inSpace := 0, false
	for i, r := range s {
		switch space := unicode.IsSpace(r); {
		case space && !inSpace:
			b.WriteString(s[field:i])
			inSpace = true
		case !space && inSpace:
			b.WriteByte(' ')
			field, inSpace = i, false
		}
	}
	b.WriteString(s[field:]) // s is trimmed: it ends inside a field
	return b.String()
}

// isCollapsed reports whether every whitespace rune in s is a single ' '
// between two non-space runes, given that s is trimmed.
func isCollapsed(s string) bool {
	prevSpace := false
	for _, r := range s {
		if !unicode.IsSpace(r) {
			prevSpace = false
			continue
		}
		if r != ' ' || prevSpace {
			return false
		}
		prevSpace = true
	}
	return true
}
