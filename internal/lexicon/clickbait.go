package lexicon

import "strings"

// clickbaitPhrases are multi-word cue phrases strongly associated with
// clickbait headlines (clickbait-challenge style inventory). Matching is
// done on the lower-cased headline.
var clickbaitPhrases = []string{
	"you won't believe",
	"you wont believe",
	"what happens next",
	"what happened next",
	"will blow your mind",
	"blew my mind",
	"this one trick",
	"one weird trick",
	"doctors hate",
	"scientists hate",
	"number 7 will",
	"the reason why",
	"restore your faith",
	"faith in humanity",
	"can't even handle",
	"you need to know",
	"need to see",
	"before you die",
	"changed my life",
	"will change your life",
	"here's why",
	"heres why",
	"find out why",
	"the truth about",
	"they don't want you to know",
	"what they found",
	"jaw-dropping",
	"jaw dropping",
	"went viral",
	"breaks the internet",
	"broke the internet",
	"this is what happens",
	"are saying about",
	"secret to",
	"secrets of",
	"you should know",
	"make you cry",
	"make you rethink",
	"gone wrong",
	"caught on camera",
	"epic fail",
	"top 10",
	"top ten",
	"the real reason",
	"nobody is talking about",
	"everyone is talking about",
	"wait till you see",
	"wait until you see",
	"big pharma",
	"hiding from you",
	"they're hiding",
	"won't tell you",
	"wont tell you",
}

// clickbaitWords are single-word cues, keyed by stem.
var clickbaitWords = map[string]struct{}{
	"shock": {}, "unbeliev": {}, "insan": {}, "crazi": {}, "epic": {},
	"viral": {}, "stun": {}, "mind-blow": {}, "amaz": {}, "incred": {},
	"secret": {}, "trick": {}, "hack": {}, "miracl": {}, "instantli": {},
	"guarante": {}, "exposé": {}, "expos": {}, "banish": {}, "destroy": {},
	"obliter": {}, "slam": {}, "genius": {}, "bizarr": {}, "weird": {},
	"terrifi": {}, "horrifi": {}, "outrag": {}, "furious": {},
}

// forwardReferences are phrases that withhold the payload of the headline
// ("this", "these", "here's what"), the defining clickbait device.
var forwardReferences = []string{
	"this is", "these are", "this was", "here's what", "heres what",
	"here is what", "that's what", "what this", "what these", "why this",
	"why these", "when you see", "it turns out", "guess what",
}

// ClickbaitPhraseHits returns how many known clickbait cue phrases occur in
// the (case-insensitive) headline.
func ClickbaitPhraseHits(headline string) int {
	return ClickbaitPhraseHitsLower(strings.ToLower(headline))
}

// ClickbaitPhraseHitsLower is ClickbaitPhraseHits for an already
// lower-cased headline (shared-analysis callers lower-case once).
func ClickbaitPhraseHitsLower(h string) int {
	hits := 0
	for _, p := range clickbaitPhrases {
		if strings.Contains(h, p) {
			hits++
		}
	}
	return hits
}

// IsClickbaitWord reports whether the word (stemmed) is a single-word
// clickbait cue.
func IsClickbaitWord(word string) bool {
	return IsClickbaitStem(stemLower(word))
}

// IsClickbaitStem is IsClickbaitWord for an already-stemmed word.
func IsClickbaitStem(stem string) bool {
	_, ok := clickbaitWords[stem]
	return ok
}

// ForwardReferenceHits counts forward-reference constructions in the
// headline ("you won't believe what THIS does").
func ForwardReferenceHits(headline string) int {
	return ForwardReferenceHitsLower(strings.ToLower(headline))
}

// ForwardReferenceHitsLower is ForwardReferenceHits for an already
// lower-cased headline.
func ForwardReferenceHitsLower(h string) int {
	hits := 0
	for _, p := range forwardReferences {
		if strings.Contains(h, p) {
			hits++
		}
	}
	return hits
}
