package textutil

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// porterStem is the table-free reference stemmer: appendStem alone over
// the lower-cased word, with no form table in the way.
func porterStem(word string) string { return string(appendStem(nil, strings.ToLower(word))) }

func TestStemKnownPairs(t *testing.T) {
	cases := []struct{ in, want string }{
		{"caresses", "caress"},
		{"ponies", "poni"},
		{"ties", "ti"},
		{"caress", "caress"},
		{"cats", "cat"},
		{"feed", "feed"},
		{"agreed", "agre"},
		{"plastered", "plaster"},
		{"bled", "bled"},
		{"motoring", "motor"},
		{"sing", "sing"},
		{"conflated", "conflat"},
		{"troubled", "troubl"},
		{"sized", "size"},
		{"hopping", "hop"},
		{"tanned", "tan"},
		{"falling", "fall"},
		{"hissing", "hiss"},
		{"fizzed", "fizz"},
		{"failing", "fail"},
		{"filing", "file"},
		{"happy", "happi"},
		{"sky", "sky"},
		{"relational", "relat"},
		{"conditional", "condit"},
		{"rational", "ration"},
		{"valenci", "valenc"},
		{"digitizer", "digit"},
		{"conformabli", "conform"},
		{"radicalli", "radic"},
		{"differentli", "differ"},
		{"vileli", "vile"},
		{"analogousli", "analog"},
		{"vietnamization", "vietnam"},
		{"predication", "predic"},
		{"operator", "oper"},
		{"feudalism", "feudal"},
		{"decisiveness", "decis"},
		{"hopefulness", "hope"},
		{"callousness", "callous"},
		{"formaliti", "formal"},
		{"sensitiviti", "sensit"},
		{"sensibiliti", "sensibl"},
		{"triplicate", "triplic"},
		{"formative", "form"},
		{"formalize", "formal"},
		{"electriciti", "electr"},
		{"electrical", "electr"},
		{"hopeful", "hope"},
		{"goodness", "good"},
		{"revival", "reviv"},
		{"allowance", "allow"},
		{"inference", "infer"},
		{"airliner", "airlin"},
		{"gyroscopic", "gyroscop"},
		{"adjustable", "adjust"},
		{"defensible", "defens"},
		{"irritant", "irrit"},
		{"replacement", "replac"},
		{"adjustment", "adjust"},
		{"dependent", "depend"},
		{"adoption", "adopt"},
		{"communism", "commun"},
		{"activate", "activ"},
		{"angulariti", "angular"},
		{"homologous", "homolog"},
		{"effective", "effect"},
		{"bowdlerize", "bowdler"},
		{"probate", "probat"},
		{"rate", "rate"},
		{"cease", "ceas"},
		{"controll", "control"},
		{"roll", "roll"},
	}
	// Each word is stemmed twice: the first Stem admits it into an empty
	// form table, the second is served from the table.
	resetFormTable()
	for _, c := range cases {
		if got := porterStem(c.in); got != c.want {
			t.Errorf("appendStem(%q) = %q, want %q", c.in, got, c.want)
		}
		for pass := range 2 {
			if got := Stem(c.in); got != c.want {
				t.Errorf("Stem(%q) pass %d = %q, want %q", c.in, pass, got, c.want)
			}
		}
		if e := forms.lookup(c.in); e == nil || e.stem != c.want {
			t.Errorf("form table holds %+v for %q, want stem %q", e, c.in, c.want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"a", "an", "be", "is", ""} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemLowercases(t *testing.T) {
	if got := Stem("Running"); got != "run" {
		t.Errorf("Stem(Running) = %q, want run", got)
	}
}

func TestStemIdempotentOnCommonVocabulary(t *testing.T) {
	// Stemming a stem twice should usually be stable; verify over the
	// vocabulary we actually use in lexica.
	words := []string{
		"science", "scientist", "research", "vaccine", "virus", "study",
		"misinformation", "credibility", "journalism", "evidence",
		"shocking", "amazing", "unbelievable", "miracle", "doctors",
	}
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		if once != twice {
			t.Errorf("Stem not idempotent for %q: %q -> %q", w, once, twice)
		}
	}
}

func TestStemNeverPanicsAndNonEmpty(t *testing.T) {
	check := func(w string) bool {
		got := Stem(w)
		// Output may be empty only if input had no letters at all.
		if len(w) > 2 && got == "" {
			for _, r := range w {
				if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStemAll(t *testing.T) {
	got := StemAll([]string{"running", "jumps"})
	if got[0] != "run" || got[1] != "jump" {
		t.Errorf("StemAll: got %v", got)
	}
}

// TestRuleSetsKeepListOrder: steps 2–4 try only the rules whose suffix
// ends in the word's last letter, and for every word those are the rules
// of the whole list that match it, in list order — so the first rule
// that applies is the one a scan of the list finds.
func TestRuleSetsKeepListOrder(t *testing.T) {
	lists := [][]rule{step2List, step3List, step4List}
	sets := []*ruleSet{step2Rules, step3Rules, step4Rules}
	matching := func(rules []rule, w []byte) []rule {
		var out []rule
		for _, r := range rules {
			if hasSuffix(w, r.suffix) {
				out = append(out, r)
			}
		}
		return out
	}
	endings := []string{"", "ion", "y", "s", "'", "\u00fc"}
	for _, list := range lists {
		for _, r := range list {
			endings = append(endings, r.suffix)
		}
	}
	for i, list := range lists {
		for _, base := range []string{"", "x", "rel", "formal", "sensib"} {
			for _, end := range endings {
				w := []byte(base + end)
				if got, want := matching(sets[i].candidates(w), w), matching(list, w); !slices.Equal(got, want) {
					t.Errorf("step %d, %q: rules %v, want %v", i+2, w, got, want)
				}
			}
		}
	}
}
