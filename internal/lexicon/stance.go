package lexicon

import (
	"strings"

	"repro/internal/textutil"
)

// stemLower stems after lower-casing; small helper shared by lexica.
func stemLower(word string) string { return textutil.Stem(strings.ToLower(word)) }

// supportCues are stems signalling a supportive stance towards a shared
// article ("great read", "so true", "must read").
var supportCues = map[string]struct{}{
	"agre": {}, "accur": {}, "confirm": {}, "correct": {}, "credibl": {},
	"excel": {}, "exactli": {}, "great": {}, "helps": {}, "help": {},
	"import": {}, "inform": {}, "insight": {}, "love": {}, "must-read": {},
	"recommend": {}, "share": {}, "support": {}, "thank": {}, "true": {},
	"trust": {}, "trustworthi": {}, "valuabl": {}, "well-research": {},
	"worth": {}, "yes": {}, "finalli": {}, "valid": {},
}

// denyCues are stems signalling a questioning/contradicting stance
// ("fake", "debunked", "misleading", "source?").
var denyCues = map[string]struct{}{
	"bogus": {}, "bullshit": {}, "debunk": {}, "deni": {}, "disagre": {},
	"disprov": {}, "doubt": {}, "fabric": {}, "fake": {}, "fals": {},
	"garbag": {}, "hoax": {}, "incorrect": {}, "lie": {}, "li": {},
	"ly": {}, "liar": {}, "mislead": {}, "misinform": {}, "nonsens": {},
	"propaganda": {},
	"pseudosci":  {}, "retract": {}, "scam": {}, "skeptic": {}, "wrong": {},
	"unproven": {}, "unreli": {}, "clickbait": {}, "conspiraci": {},
	"no": {}, "not": {},
}

// questionCues signal doubt expressed as a question ("source?", "really?").
var questionCues = map[string]struct{}{
	"realli": {}, "sourc": {}, "evid": {}, "proof": {}, "citat": {},
	"sure": {}, "seriou": {}, "legit": {},
}

// IsSupportCue reports whether the word (stemmed) signals support.
func IsSupportCue(word string) bool {
	_, ok := supportCues[stemLower(word)]
	return ok
}

// IsDenyCue reports whether the word (stemmed) signals denial/questioning.
func IsDenyCue(word string) bool {
	_, ok := denyCues[stemLower(word)]
	return ok
}

// IsQuestionCue reports whether the word (stemmed) is a doubt-question cue
// ("source?", "proof?").
func IsQuestionCue(word string) bool {
	_, ok := questionCues[stemLower(word)]
	return ok
}
