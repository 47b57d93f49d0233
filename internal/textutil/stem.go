package textutil

import "strings"

// Stem reduces an English word to its stem using the Porter stemming
// algorithm (Porter, 1980). The input is lower-cased first. Words shorter
// than three letters are returned unchanged (lower-cased).
//
// The stemmer is used to collapse inflectional variants before lexicon
// lookups and bag-of-words vectorisation. A form the process-wide form
// table holds, or admits now, is stemmed once per process.
func Stem(word string) string {
	lower := strings.ToLower(word)
	if e := forms.lookup(lower); e != nil {
		return e.stem
	}
	if e := forms.admit(lower); e != nil {
		return e.stem
	}
	var buf [32]byte
	w := appendStem(buf[:0], lower)
	if string(w) == lower {
		return lower
	}
	return string(w)
}

// appendStem appends the Porter stem of lower, which must already be
// lower-cased, to dst and returns the extended slice. The steps run in
// place on the appended copy.
func appendStem(dst []byte, lower string) []byte {
	start := len(dst)
	dst = append(dst, lower...)
	if len(lower) <= 2 {
		return dst
	}
	w := dst[start:]
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return append(dst[:start], w...)
}

// isCons reports whether w[i] is a consonant under Porter's definition
// ("y" is a consonant when preceded by a vowel position).
func isCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(w, i-1)
	}
	return true
}

// measure computes Porter's m: the number of VC sequences in w[:len(w)].
func measure(w []byte) int {
	n := 0
	i := 0
	ln := len(w)
	// Skip initial consonants.
	for i < ln && isCons(w, i) {
		i++
	}
	for i < ln {
		// Vowel run.
		for i < ln && !isCons(w, i) {
			i++
		}
		if i >= ln {
			break
		}
		// Consonant run => one VC.
		for i < ln && isCons(w, i) {
			i++
		}
		n++
	}
	return n
}

func containsVowel(w []byte) bool {
	for i := range w {
		if !isCons(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether w ends with a doubled consonant.
func endsDoubleCons(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isCons(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y.
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	c := w[n-1]
	return c != 'w' && c != 'x' && c != 'y'
}

// hasSuffix reports whether w ends with s. The rule tables are scanned in
// order, so the last-byte test rejects most rules without a comparison.
func hasSuffix(w []byte, s string) bool {
	return len(w) >= len(s) && w[len(w)-1] == s[len(s)-1] &&
		string(w[len(w)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r if the stem before s has measure
// at least minM. Reports whether a replacement happened. The replacement
// is written over the suffix.
func replaceSuffix(w []byte, s, r string, minM int) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if measure(stem) < minM {
		return w, false
	}
	return append(stem, r...), true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	applied := false
	if hasSuffix(w, "ed") && containsVowel(w[:len(w)-2]) {
		w = w[:len(w)-2]
		applied = true
	} else if hasSuffix(w, "ing") && containsVowel(w[:len(w)-3]) {
		w = w[:len(w)-3]
		applied = true
	}
	if !applied {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleCons(w) && !hasSuffix(w, "l") && !hasSuffix(w, "s") && !hasSuffix(w, "z"):
		return w[:len(w)-1]
	case measure(w) == 1 && endsCVC(w):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && containsVowel(w[:len(w)-1]) {
		w = append(w[:len(w)-1], 'i')
	}
	return w
}

// rule rewrites a word ending in suffix to end in repl.
type rule struct{ suffix, repl string }

// ruleSet holds a step's rules by the last letter of their suffix, each
// group in the step's order, so a step tries only the rules that can
// match: the first rule that applies is the same as over the whole list.
type ruleSet [26][]rule

func newRuleSet(rules ...rule) *ruleSet {
	var s ruleSet
	for _, r := range rules {
		c := r.suffix[len(r.suffix)-1] - 'a'
		s[c] = append(s[c], r)
	}
	return &s
}

// candidates returns the rules whose suffix ends in w's last letter.
func (s *ruleSet) candidates(w []byte) []rule {
	if len(w) == 0 || w[len(w)-1]-'a' >= 26 {
		return nil
	}
	return s[w[len(w)-1]-'a']
}

var step2List = []rule{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

var step2Rules = newRuleSet(step2List...)

func step2(w []byte) []byte {
	for _, r := range step2Rules.candidates(w) {
		if out, ok := replaceSuffix(w, r.suffix, r.repl, 1); ok {
			return out
		}
	}
	return w
}

var step3List = []rule{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

var step3Rules = newRuleSet(step3List...)

func step3(w []byte) []byte {
	for _, r := range step3Rules.candidates(w) {
		if out, ok := replaceSuffix(w, r.suffix, r.repl, 1); ok {
			return out
		}
	}
	return w
}

// step4List's suffixes are removed outright, so its rules have no
// replacement.
var step4List = []rule{
	{"al", ""}, {"ance", ""}, {"ence", ""}, {"er", ""}, {"ic", ""},
	{"able", ""}, {"ible", ""}, {"ant", ""}, {"ement", ""},
	{"ment", ""}, {"ent", ""}, {"ou", ""}, {"ism", ""}, {"ate", ""},
	{"iti", ""}, {"ous", ""}, {"ive", ""}, {"ize", ""},
}

var step4Rules = newRuleSet(step4List...)

func step4(w []byte) []byte {
	for _, r := range step4Rules.candidates(w) {
		if !hasSuffix(w, r.suffix) {
			continue
		}
		stem := w[:len(w)-len(r.suffix)]
		if measure(stem) <= 1 {
			return w
		}
		// "ion" requires preceding s or t; handled below. For the plain
		// suffix list, strip directly.
		return stem
	}
	if hasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if measure(stem) > 1 && len(stem) > 0 && (stem[len(stem)-1] == 's' || stem[len(stem)-1] == 't') {
			return stem
		}
	}
	return w
}

func step5a(w []byte) []byte {
	if hasSuffix(w, "e") {
		stem := w[:len(w)-1]
		m := measure(stem)
		if m > 1 || (m == 1 && !endsCVC(stem)) {
			return stem
		}
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w) > 1 && endsDoubleCons(w) && hasSuffix(w, "ll") {
		return w[:len(w)-1]
	}
	return w
}

// StemAll stems every word in the slice, returning a new slice.
func StemAll(words []string) []string {
	out := make([]string, len(words))
	for i, w := range words {
		out[i] = Stem(w)
	}
	return out
}
