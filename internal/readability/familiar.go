package readability

import (
	"strings"

	"repro/internal/textutil"
)

// familiarStems approximates the Dale–Chall familiar-word list (3000 words
// known to 80% of fourth-graders) with a stem set covering the
// high-frequency core. A word is familiar if it is a stop word, is short (<= 4 letters and
// monosyllabic), or its stem is in this set.
var familiarStems = map[string]struct{}{
	"peopl": {}, "world": {}, "week": {}, "year": {}, "month": {}, "dai": {},
	"time": {}, "home": {}, "hous": {}, "school": {}, "work": {}, "plai": {},
	"water": {}, "food": {}, "famili": {}, "friend": {}, "mother": {},
	"father": {}, "children": {}, "child": {}, "man": {}, "woman": {},
	"monei": {}, "citi": {}, "town": {}, "countri": {}, "stori": {},
	"news": {}, "paper": {}, "book": {}, "word": {}, "letter": {},
	"number": {}, "live": {}, "life": {}, "help": {}, "need": {},
	"want": {}, "know": {}, "think": {}, "sai": {}, "tell": {}, "ask": {},
	"find": {}, "look": {}, "come": {}, "go": {}, "get": {}, "give": {},
	"take": {}, "make": {}, "made": {}, "put": {}, "keep": {}, "start": {},
	"stop": {}, "open": {}, "close": {}, "turn": {}, "walk": {}, "run": {},
	"eat": {}, "drink": {}, "sleep": {}, "read": {}, "write": {},
	"learn": {}, "teach": {}, "show": {}, "watch": {}, "hear": {},
	"listen": {}, "talk": {}, "speak": {}, "call": {}, "answer": {},
	"hand": {}, "head": {}, "ei": {}, "face": {}, "bodi": {}, "heart": {},
	"doctor": {}, "sick": {}, "ill": {}, "well": {}, "health": {},
	"good": {}, "bad": {}, "big": {}, "small": {}, "long": {}, "short": {},
	"old": {}, "new": {}, "young": {}, "high": {}, "low": {}, "fast": {},
	"slow": {}, "hot": {}, "cold": {}, "warm": {}, "hard": {}, "easi": {},
	"right": {}, "left": {}, "first": {}, "last": {}, "next": {},
	"earli": {}, "late": {}, "todai": {}, "tomorrow": {}, "yesterdai": {},
	"morn": {}, "night": {}, "place": {}, "wai": {}, "thing": {},
	"part": {}, "side": {}, "end": {}, "begin": {}, "becaus": {},
	"befor": {}, "after": {}, "never": {}, "alwai": {}, "often": {},
	"sometim": {}, "nearli": {}, "almost": {}, "much": {}, "mani": {},
	"report": {}, "state": {}, "countr": {}, "nation": {}, "govern": {},
	"group": {}, "member": {}, "leader": {}, "question": {}, "problem": {},
	"idea": {}, "plan": {}, "chang": {}, "mean": {}, "fact": {},
	"true": {}, "fals": {}, "happen": {}, "move": {}, "feel": {},
	"felt": {}, "found": {}, "gave": {}, "came": {}, "went": {},
	"said": {}, "told": {}, "knew": {}, "thought": {}, "saw": {},
	"studi": {}, "test": {}, "caus": {}, "spread": {}, "case": {},
	"death": {}, "die": {}, "kill": {}, "save": {}, "care": {},
	"fear": {}, "hope": {}, "love": {}, "hate": {}, "believ": {},
}

// IsFamiliarWord reports whether the word counts as "familiar" for the
// Dale–Chall approximation.
func IsFamiliarWord(word string) bool {
	w := strings.ToLower(word)
	if textutil.IsStopwordLower(w) {
		return true
	}
	if len(w) <= 4 && textutil.SyllableCountLower(w) == 1 {
		return true
	}
	_, ok := familiarStems[textutil.Stem(w)]
	return ok
}

// familiarParts is IsFamiliarWord over precomputed word parts (lowered
// form, stem, syllable count, stop-word flag) from a shared analysis.
func familiarParts(lower, stem string, syllables int, stop bool) bool {
	if stop {
		return true
	}
	if len(lower) <= 4 && syllables == 1 {
		return true
	}
	_, ok := familiarStems[stem]
	return ok
}
