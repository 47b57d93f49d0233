package readability

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

const simpleText = `The cat sat on the mat. The dog ran to the park. ` +
	`We like to play all day. The sun is warm and bright.`

const complexText = `Epidemiological investigations concerning asymptomatic ` +
	`transmission dynamics necessitate comprehensive longitudinal ` +
	`surveillance methodologies. Multivariate statistical analyses ` +
	`demonstrate significant heterogeneity across demographic strata, ` +
	`complicating interpretability considerations substantially.`

func TestAnalyzeBasicCounts(t *testing.T) {
	s := Analyze("The cat sat. The dog ran.")
	if s.Sentences != 2 {
		t.Errorf("sentences: got %d want 2", s.Sentences)
	}
	if s.Words != 6 {
		t.Errorf("words: got %d want 6", s.Words)
	}
	if s.Syllables != 6 {
		t.Errorf("syllables: got %d want 6", s.Syllables)
	}
	if s.Polysyllables != 0 {
		t.Errorf("polysyllables: got %d want 0", s.Polysyllables)
	}
	if s.Letters != 18 {
		t.Errorf("letters: got %d want 18", s.Letters)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	s := Analyze("")
	if s.Words != 0 || s.Sentences != 0 {
		t.Errorf("empty: %+v", s)
	}
	if sc := Compute(s); sc != (Scores{}) {
		t.Errorf("empty scores: %+v", sc)
	}
}

func TestSimpleEasierThanComplex(t *testing.T) {
	simple := Compute(Analyze(simpleText))
	complexSc := Compute(Analyze(complexText))

	if simple.FleschReadingEase <= complexSc.FleschReadingEase {
		t.Errorf("Flesch ease: simple %.1f should exceed complex %.1f",
			simple.FleschReadingEase, complexSc.FleschReadingEase)
	}
	if simple.FleschKincaidGrade >= complexSc.FleschKincaidGrade {
		t.Errorf("FK grade: simple %.1f should be below complex %.1f",
			simple.FleschKincaidGrade, complexSc.FleschKincaidGrade)
	}
	if simple.GunningFog >= complexSc.GunningFog {
		t.Errorf("fog: simple %.1f vs complex %.1f", simple.GunningFog, complexSc.GunningFog)
	}
	if simple.SMOG >= complexSc.SMOG {
		t.Errorf("smog: simple %.1f vs complex %.1f", simple.SMOG, complexSc.SMOG)
	}
	if simple.ColemanLiau >= complexSc.ColemanLiau {
		t.Errorf("coleman-liau: simple %.1f vs complex %.1f", simple.ColemanLiau, complexSc.ColemanLiau)
	}
	if simple.ARI >= complexSc.ARI {
		t.Errorf("ari: simple %.1f vs complex %.1f", simple.ARI, complexSc.ARI)
	}
	if simple.DaleChall >= complexSc.DaleChall {
		t.Errorf("dale-chall: simple %.1f vs complex %.1f", simple.DaleChall, complexSc.DaleChall)
	}
}

func TestFleschRangeForSimpleProse(t *testing.T) {
	sc := Compute(Analyze(simpleText))
	if sc.FleschReadingEase < 80 || sc.FleschReadingEase > 120 {
		t.Errorf("simple prose Flesch ease out of range: %.1f", sc.FleschReadingEase)
	}
	if sc.FleschKincaidGrade > 4 {
		t.Errorf("simple prose FK grade too high: %.1f", sc.FleschKincaidGrade)
	}
}

func TestComputeKnownValues(t *testing.T) {
	// Hand-checked stats: 100 words, 10 sentences, 150 syllables.
	s := Stats{Sentences: 10, Words: 100, Syllables: 150, Polysyllables: 10, Letters: 470, DifficultWords: 15}
	sc := Compute(s)
	wantFlesch := 206.835 - 1.015*10 - 84.6*1.5
	if math.Abs(sc.FleschReadingEase-wantFlesch) > 1e-9 {
		t.Errorf("flesch: got %v want %v", sc.FleschReadingEase, wantFlesch)
	}
	wantFK := 0.39*10 + 11.8*1.5 - 15.59
	if math.Abs(sc.FleschKincaidGrade-wantFK) > 1e-9 {
		t.Errorf("fk: got %v want %v", sc.FleschKincaidGrade, wantFK)
	}
	wantFog := 0.4 * (10 + 100*10.0/100)
	if math.Abs(sc.GunningFog-wantFog) > 1e-9 {
		t.Errorf("fog: got %v want %v", sc.GunningFog, wantFog)
	}
	wantSMOG := 1.0430*math.Sqrt(10*30.0/10) + 3.1291
	if math.Abs(sc.SMOG-wantSMOG) > 1e-9 {
		t.Errorf("smog: got %v want %v", sc.SMOG, wantSMOG)
	}
	wantCL := 0.0588*470 - 0.296*10 - 15.8
	if math.Abs(sc.ColemanLiau-wantCL) > 1e-9 {
		t.Errorf("cl: got %v want %v", sc.ColemanLiau, wantCL)
	}
	wantARI := 4.71*4.7 + 0.5*10 - 21.43
	if math.Abs(sc.ARI-wantARI) > 1e-9 {
		t.Errorf("ari: got %v want %v", sc.ARI, wantARI)
	}
	// 15% difficult > 5% threshold: adjusted formula.
	wantDC := 0.1579*15 + 0.0496*10 + 3.6365
	if math.Abs(sc.DaleChall-wantDC) > 1e-9 {
		t.Errorf("dc: got %v want %v", sc.DaleChall, wantDC)
	}
}

func TestDaleChallNoAdjustmentBelowThreshold(t *testing.T) {
	s := Stats{Sentences: 10, Words: 100, Syllables: 120, Letters: 400, DifficultWords: 3}
	sc := Compute(s)
	want := 0.1579*3 + 0.0496*10
	if math.Abs(sc.DaleChall-want) > 1e-9 {
		t.Errorf("dc: got %v want %v", sc.DaleChall, want)
	}
}

func TestGradeConsensusIsMedian(t *testing.T) {
	sc := Scores{FleschKincaidGrade: 1, GunningFog: 9, SMOG: 5, ColemanLiau: 3, ARI: 7}
	if g := GradeConsensus(sc); g != 5 {
		t.Errorf("median: got %v want 5", g)
	}
}

func TestScoresFiniteProperty(t *testing.T) {
	check := func(words []string) bool {
		text := strings.Join(words, " ")
		sc := Compute(Analyze(text))
		vals := []float64{
			sc.FleschReadingEase, sc.FleschKincaidGrade, sc.GunningFog,
			sc.SMOG, sc.ColemanLiau, sc.ARI, sc.DaleChall,
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIsFamiliarWord(t *testing.T) {
	familiar := []string{"the", "cat", "people", "work", "doctors", "said", "day"}
	for _, w := range familiar {
		if !IsFamiliarWord(w) {
			t.Errorf("%q should be familiar", w)
		}
	}
	difficult := []string{"epidemiological", "heterogeneity", "surveillance", "asymptomatic"}
	for _, w := range difficult {
		if IsFamiliarWord(w) {
			t.Errorf("%q should be difficult", w)
		}
	}
}

func TestFamiliarListSize(t *testing.T) {
	if n := len(familiarStems); n < 100 {
		t.Errorf("familiar list too small: %d", n)
	}
}

func TestAnalyzeSingleWordNoPeriod(t *testing.T) {
	s := Analyze("Headline")
	if s.Sentences != 1 {
		t.Errorf("sentences: got %d want 1", s.Sentences)
	}
	if s.Words != 1 {
		t.Errorf("words: got %d want 1", s.Words)
	}
}
