package textutil

import "strings"

// SyllableCount estimates the number of syllables in a single English word
// using the classic vowel-group heuristic with corrections for silent "e",
// "-le" endings and common diphthongs. The estimate is what the readability
// formulas (Flesch, SMOG, ...) were calibrated against.
//
// Non-alphabetic characters are ignored; an empty or vowel-less word counts
// as one syllable.
func SyllableCount(word string) int {
	w := strings.ToLower(word)
	return SyllableCountLower(w)
}

// SyllableCountLower is SyllableCount for input known to be lower-cased
// already. Pure a-z words — the common case — are counted in place without
// the strip-and-rebuild allocation.
func SyllableCountLower(w string) int {
	for i := 0; i < len(w); i++ {
		if w[i] < 'a' || w[i] > 'z' {
			return syllablesOfStripped(stripNonLetters(w))
		}
	}
	return syllablesOfStripped(w)
}

// stripNonLetters removes everything outside a-z: "don't" -> "dont".
func stripNonLetters(w string) string {
	var b strings.Builder
	b.Grow(len(w))
	for _, r := range w {
		if r >= 'a' && r <= 'z' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// syllablesOfStripped counts syllables of an all-lower-case, letters-only
// word.
func syllablesOfStripped(w string) int {
	if w == "" {
		return 1
	}
	if n, ok := syllableExceptions[w]; ok {
		return n
	}

	count := 0
	prevVowel := false
	for i := 0; i < len(w); i++ {
		v := isVowel(w[i])
		if v && !prevVowel {
			count++
		}
		prevVowel = v
	}

	// Silent final "e": "make" has one syllable, but keep "the", "be" and
	// "-le" words ("table") where the final e heads its own vowel group.
	if strings.HasSuffix(w, "e") && !strings.HasSuffix(w, "le") && count > 1 {
		count--
	}
	// "-ed" endings are usually silent after most consonants: "walked".
	if strings.HasSuffix(w, "ed") && len(w) > 3 && count > 1 {
		c := w[len(w)-3]
		if c != 't' && c != 'd' && !isVowel(c) {
			count--
		}
	}
	if count < 1 {
		count = 1
	}
	return count
}

// syllableExceptions corrects the vowel-group heuristic for words that the
// SciLens corpora use constantly and that the heuristic gets wrong (mostly
// "-cien-" words where "ie" spans two syllables).
var syllableExceptions = map[string]int{
	"science": 2, "sciences": 3, "scientist": 3, "scientists": 3,
	"scientific": 4, "society": 4, "being": 2, "create": 2, "created": 3,
}

func isVowel(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u', 'y':
		return true
	}
	return false
}
