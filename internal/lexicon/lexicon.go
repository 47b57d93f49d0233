// Package lexicon embeds the word lists and domain registries that the
// SciLens indicator models consume: a subjectivity lexicon, clickbait cue
// phrases, stance cues, hedging/boosting terms and the scientific-domain
// registry used to classify article references.
//
// The lists are compiled from the public resources the original pipeline
// relied on (OpinionFinder-style subjectivity clues, clickbait-challenge cue
// phrases, academic top-level domain conventions), reduced to stdlib-only
// embedded Go tables. Lookups are case-insensitive and, where noted,
// stem-based so inflected forms match.
package lexicon

import (
	"repro/internal/textutil"
)

// Polarity is the orientation a subjectivity-lexicon entry carries.
type Polarity int8

// Polarity values.
const (
	// Negative marks words expressing negative sentiment/subjectivity.
	Negative Polarity = -1
	// Neutral marks subjective but unoriented words (hedges, intensity).
	Neutral Polarity = 0
	// Positive marks words expressing positive sentiment/subjectivity.
	Positive Polarity = 1
)

// SubjectivityEntry describes one subjectivity-lexicon word.
type SubjectivityEntry struct {
	// Strong is true for strongly subjective clues, false for weak ones.
	Strong bool
	// Pol is the prior polarity of the clue.
	Pol Polarity
}

// strongSubjective lists strongly subjective clues (strong prior that the
// containing sentence is subjective), keyed by stem.
var strongSubjective = map[string]Polarity{
	// Positive.
	"amaz": Positive, "awesom": Positive, "beauti": Positive,
	"breathtak": Positive, "brilliant": Positive, "delight": Positive,
	"excel": Positive, "extraordinari": Positive, "fabul": Positive,
	"fantast": Positive, "genius": Positive, "glorious": Positive,
	"incred": Positive, "love": Positive, "magnific": Positive,
	"marvel": Positive, "miracl": Positive, "miracul": Positive,
	"perfect": Positive, "phenomen": Positive, "remark": Positive,
	"sensat": Positive, "spectacular": Positive, "stun": Positive,
	"superb": Positive, "thrill": Positive, "triumph": Positive,
	"wonder": Positive, "wow": Positive,
	// Negative.
	"absurd": Negative, "appal": Negative, "atroci": Negative,
	"aw": Negative, "catastroph": Negative, "danger": Negative,
	"deadli": Negative, "despic": Negative, "devast": Negative,
	"disast": Negative, "disastr": Negative, "disgust": Negative,
	"dread": Negative, "evil": Negative, "fraud": Negative,
	"frighten": Negative, "hate": Negative, "horribl": Negative,
	"horrif": Negative, "hysteria": Negative, "idiot": Negative,
	"insan": Negative, "lie": Negative, "liar": Negative,
	"ludicr": Negative, "nightmar": Negative, "outrag": Negative,
	"pathet": Negative, "poison": Negative, "ridicul": Negative,
	"scandal": Negative, "scare": Negative, "scari": Negative,
	"shock": Negative, "stupid": Negative, "terribl": Negative,
	"terrifi": Negative, "toxic": Negative, "tragic": Negative,
	"worst": Negative, "wrong": Negative,
}

// weakSubjective lists weakly subjective clues, keyed by stem.
var weakSubjective = map[string]Polarity{
	"apparent": Neutral, "arguabl": Neutral, "assum": Neutral,
	"bad": Negative, "belief": Neutral, "believ": Neutral,
	"better": Positive, "big": Neutral, "bizarr": Negative,
	"claim": Neutral, "concern": Negative, "controversi": Negative,
	"could": Neutral, "critic": Negative, "doubt": Negative,
	"dubious": Negative, "fear": Negative, "feel": Neutral,
	"good": Positive, "great": Positive, "guess": Neutral,
	"happi": Positive, "hope": Positive, "huge": Neutral,
	"interest": Positive, "likelihood": Neutral, "like": Neutral,
	"mere": Negative, "might": Neutral, "mislead": Negative,
	"onli": Neutral, "opinion": Neutral, "panic": Negative,
	"perhap": Neutral, "possibl": Neutral, "possibli": Neutral,
	"probabl":  Neutral,
	"question": Negative, "rumor": Negative, "rumour": Negative,
	"sad": Negative, "seem": Neutral, "simpl": Neutral, "so-cal": Negative, "speculat": Neutral, "suppos": Neutral,
	"surpris": Neutral, "think": Neutral, "unclear": Neutral,
	"unexpect": Neutral, "unknown": Neutral, "unproven": Negative,
	"untest": Negative, "view": Neutral, "worri": Negative,
}

// LookupSubjectivity returns the subjectivity entry for a word (any
// inflection; the lookup stems the input) and whether the word is a clue.
func LookupSubjectivity(word string) (SubjectivityEntry, bool) {
	return SubjectivityByStem(textutil.Stem(word))
}

// SubjectivityByStem is LookupSubjectivity for an already-stemmed word —
// the entry point for callers holding a shared textutil.Analysis, which
// stems each word exactly once.
func SubjectivityByStem(stem string) (SubjectivityEntry, bool) {
	if pol, ok := strongSubjective[stem]; ok {
		return SubjectivityEntry{Strong: true, Pol: pol}, true
	}
	if pol, ok := weakSubjective[stem]; ok {
		return SubjectivityEntry{Strong: false, Pol: pol}, true
	}
	return SubjectivityEntry{}, false
}

// boosters are certainty amplifiers, a weak clickbait/low-quality signal
// when dense.
var boosters = map[string]struct{}{
	"definit": {}, "absolut": {}, "certainli": {}, "undoubt": {},
	"alwai": {}, "never": {}, "everi": {}, "total": {}, "complet": {},
	"guarante": {}, "prove": {}, "proven": {}, "100": {}, "literal": {},
}

// IsBooster reports whether the word (stemmed) is a certainty booster.
func IsBooster(word string) bool { return IsBoosterStem(textutil.Stem(word)) }

// IsBoosterStem is IsBooster for an already-stemmed word.
func IsBoosterStem(stem string) bool {
	_, ok := boosters[stem]
	return ok
}
