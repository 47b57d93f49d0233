package lexicon

import "testing"

func TestLookupSubjectivityStrong(t *testing.T) {
	cases := []struct {
		word   string
		strong bool
		pol    Polarity
	}{
		{"amazing", true, Positive},
		{"AMAZED", true, Positive},
		{"shocking", true, Negative},
		{"shocked", true, Negative},
		{"miracle", true, Positive},
		{"miraculous", true, Positive},
		{"terrible", true, Negative},
		{"disastrous", true, Negative},
	}
	for _, c := range cases {
		e, ok := LookupSubjectivity(c.word)
		if !ok {
			t.Errorf("%q should be in the lexicon", c.word)
			continue
		}
		if e.Strong != c.strong || e.Pol != c.pol {
			t.Errorf("%q: got %+v, want strong=%v pol=%v", c.word, e, c.strong, c.pol)
		}
	}
}

func TestLookupSubjectivityWeak(t *testing.T) {
	for _, w := range []string{"possibly", "claims", "seems", "doubts", "believes"} {
		e, ok := LookupSubjectivity(w)
		if !ok {
			t.Errorf("%q should be a weak clue", w)
			continue
		}
		if e.Strong {
			t.Errorf("%q should be weak, got strong", w)
		}
	}
}

func TestLookupSubjectivityObjectiveWords(t *testing.T) {
	for _, w := range []string{"protein", "molecule", "thursday", "published", "data"} {
		if _, ok := LookupSubjectivity(w); ok {
			t.Errorf("%q should not be a subjectivity clue", w)
		}
	}
}

func TestSubjectivityLexiconNonEmpty(t *testing.T) {
	s, w := len(strongSubjective), len(weakSubjective)
	if s < 40 || w < 30 {
		t.Errorf("lexicon suspiciously small: strong=%d weak=%d", s, w)
	}
}

func TestHedgesAndBoosters(t *testing.T) {
	for _, w := range []string{"definitely", "guaranteed", "always", "proven"} {
		if !IsBooster(w) {
			t.Errorf("%q should be a booster", w)
		}
	}
	if IsBooster("protein") {
		t.Error("protein is not a booster")
	}
}

func TestClickbaitPhraseHits(t *testing.T) {
	cases := []struct {
		headline string
		min      int
	}{
		{"You Won't Believe What Happens Next", 2},
		{"Doctors HATE this one weird trick", 2},
		{"Study finds modest effect of masks on transmission", 0},
		{"The Truth About Vaccines They Don't Want You To Know", 2},
	}
	for _, c := range cases {
		if got := ClickbaitPhraseHits(c.headline); got < c.min {
			t.Errorf("ClickbaitPhraseHits(%q) = %d, want >= %d", c.headline, got, c.min)
		}
	}
	if got := ClickbaitPhraseHits("Plain headline"); got != 0 {
		t.Errorf("plain headline: got %d", got)
	}
}

func TestIsClickbaitWord(t *testing.T) {
	for _, w := range []string{"SHOCKING", "unbelievable", "viral", "miracle", "secret"} {
		if !IsClickbaitWord(w) {
			t.Errorf("%q should be a clickbait cue", w)
		}
	}
	for _, w := range []string{"study", "finds", "researchers"} {
		if IsClickbaitWord(w) {
			t.Errorf("%q should not be a clickbait cue", w)
		}
	}
}

func TestForwardReferenceHits(t *testing.T) {
	if got := ForwardReferenceHits("THIS IS the thing nobody expected"); got < 1 {
		t.Errorf("got %d", got)
	}
	if got := ForwardReferenceHits("Researchers publish trial results"); got != 0 {
		t.Errorf("got %d", got)
	}
}

func TestClickbaitLexiconSize(t *testing.T) {
	p, w, f := len(clickbaitPhrases), len(clickbaitWords), len(forwardReferences)
	if p < 30 || w < 20 || f < 10 {
		t.Errorf("clickbait lexicon too small: %d %d %d", p, w, f)
	}
}

func TestStanceCues(t *testing.T) {
	for _, w := range []string{"agreed", "confirms", "trustworthy", "recommended"} {
		if !IsSupportCue(w) {
			t.Errorf("%q should be a support cue", w)
		}
	}
	for _, w := range []string{"debunked", "fake", "hoax", "misleading", "lies"} {
		if !IsDenyCue(w) {
			t.Errorf("%q should be a deny cue", w)
		}
	}
	for _, w := range []string{"source", "really", "proof", "evidence"} {
		if !IsQuestionCue(w) {
			t.Errorf("%q should be a question cue", w)
		}
	}
	if IsSupportCue("molecule") || IsDenyCue("molecule") || IsQuestionCue("molecule") {
		t.Error("molecule is not a stance cue")
	}
	s, d, q := len(supportCues), len(denyCues), len(questionCues)
	if s < 20 || d < 20 || q < 5 {
		t.Errorf("stance lexicon too small: %d %d %d", s, d, q)
	}
}

func TestClassifyScientificDomain(t *testing.T) {
	cases := []struct {
		host string
		want ScientificDomainClass
	}{
		{"arxiv.org", SciRepository},
		{"www.arxiv.org", SciRepository},
		{"export.arxiv.org", SciRepository},
		{"nature.com", SciJournal},
		{"www.nature.com", SciJournal},
		{"journals.plos.org", SciJournal},
		{"plos.org", SciJournal},
		{"who.int", SciInstitution},
		{"WWW.CDC.GOV", SciInstitution},
		{"research.mit.edu", SciInstitution},
		{"anything.edu", SciInstitution},
		{"physics.ox.ac.uk", SciInstitution},
		{"nber.org", SciGreyLiterature},
		{"cnn.com", SciNone},
		{"example.com", SciNone},
		{"", SciNone},
	}
	for _, c := range cases {
		if got := ClassifyScientificDomain(c.host); got != c.want {
			t.Errorf("ClassifyScientificDomain(%q) = %v, want %v", c.host, got, c.want)
		}
	}
}

func TestIsScientificDomain(t *testing.T) {
	if ClassifyScientificDomain("nature.com") == SciNone {
		t.Error("nature.com should be scientific")
	}
	if ClassifyScientificDomain("buzzfeed.com") != SciNone {
		t.Error("buzzfeed.com should not be scientific")
	}
}

func TestScientificDomainClassString(t *testing.T) {
	want := map[ScientificDomainClass]string{
		SciNone: "none", SciRepository: "repository", SciJournal: "journal",
		SciInstitution: "institution", SciGreyLiterature: "grey-literature",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestScientificDomainCount(t *testing.T) {
	if n := len(scientificDomains); n < 50 {
		t.Errorf("registry too small: %d", n)
	}
}
