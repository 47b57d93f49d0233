// Package readability implements the classical readability formulas the
// SciLens content indicators report: Flesch Reading-Ease, Flesch–Kincaid
// grade, Gunning-Fog, SMOG, Coleman–Liau, Automated Readability Index and
// Dale–Chall. All formulas share one pass of text statistics, computed by
// Analyze.
package readability

import (
	"math"

	"repro/internal/textutil"
)

// Stats holds the text statistics every formula consumes.
type Stats struct {
	// Sentences is the number of sentences (at least 1 for non-empty text).
	Sentences int
	// Words is the number of word tokens.
	Words int
	// Syllables is the total syllable estimate over all words.
	Syllables int
	// Polysyllables is the number of words with >= 3 syllables.
	Polysyllables int
	// Letters is the number of letter runes inside word tokens.
	Letters int
	// DifficultWords is the number of words not on the familiar-word list
	// (Dale–Chall approximation; see IsFamiliarWord).
	DifficultWords int
}

// Analyze computes the statistics for text in a single tokenisation pass.
//
//scilint:ignore testonlyapi reference for AnalyzeDoc in TestAnalyzeDocMatchesAnalyze and TestSharedAnalysisEquivalence
func Analyze(text string) Stats {
	var s Stats
	toks := textutil.Tokenize(text)
	for _, t := range toks {
		if t.Kind != textutil.KindWord {
			continue
		}
		s.Words++
		syl := textutil.SyllableCount(t.Text)
		s.Syllables += syl
		if syl >= 3 {
			s.Polysyllables++
		}
		for _, r := range t.Text {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
				s.Letters++
			}
		}
		if !IsFamiliarWord(t.Text) {
			s.DifficultWords++
		}
	}
	s.Sentences = textutil.SentenceCount(text)
	if s.Words > 0 && s.Sentences == 0 {
		s.Sentences = 1
	}
	return s
}

// AnalyzeDoc computes the same statistics as Analyze from a shared
// single-pass document analysis, without re-tokenising, re-stemming or
// re-counting syllables.
func AnalyzeDoc(a *textutil.Analysis) Stats {
	var s Stats
	s.Words = len(a.Words)
	s.Letters = a.Letters
	for i := range a.Words {
		w := &a.Words[i]
		s.Syllables += w.Syllables
		if w.Syllables >= 3 {
			s.Polysyllables++
		}
		if !familiarParts(w.Lower, w.Stem, w.Syllables, w.Stop) {
			s.DifficultWords++
		}
	}
	s.Sentences = a.SentenceCount
	if s.Words > 0 && s.Sentences == 0 {
		s.Sentences = 1
	}
	return s
}

// ScoreDoc is the shared-analysis analogue of Score: AnalyzeDoc + Compute.
func ScoreDoc(a *textutil.Analysis) Scores { return Compute(AnalyzeDoc(a)) }

// Scores bundles the readability metrics for one text.
type Scores struct {
	// FleschReadingEase: 0 (very hard) .. ~100 (very easy). News prose is
	// typically 50-70.
	FleschReadingEase float64
	// FleschKincaidGrade: US school grade level.
	FleschKincaidGrade float64
	// GunningFog: years of formal education needed.
	GunningFog float64
	// SMOG: grade estimate from polysyllable density.
	SMOG float64
	// ColemanLiau: grade estimate from letters/words/sentences.
	ColemanLiau float64
	// ARI: Automated Readability Index grade estimate.
	ARI float64
	// DaleChall: adjusted Dale–Chall score (4.9 and below ≈ grade 4,
	// 9.0-9.9 ≈ college).
	DaleChall float64
}

// Compute derives all scores from precomputed stats. Degenerate inputs
// (no words or no sentences) return the zero Scores.
func Compute(s Stats) Scores {
	if s.Words == 0 || s.Sentences == 0 {
		return Scores{}
	}
	w := float64(s.Words)
	sent := float64(s.Sentences)
	syl := float64(s.Syllables)
	poly := float64(s.Polysyllables)
	letters := float64(s.Letters)
	difficult := float64(s.DifficultWords)

	wordsPerSentence := w / sent
	syllablesPerWord := syl / w

	var sc Scores
	sc.FleschReadingEase = 206.835 - 1.015*wordsPerSentence - 84.6*syllablesPerWord
	sc.FleschKincaidGrade = 0.39*wordsPerSentence + 11.8*syllablesPerWord - 15.59
	sc.GunningFog = 0.4 * (wordsPerSentence + 100*poly/w)
	// SMOG is defined for >= 30 sentences; the standard small-sample form
	// still uses the same constants.
	sc.SMOG = 1.0430*math.Sqrt(poly*30/sent) + 3.1291
	l := letters / w * 100 // letters per 100 words
	st := sent / w * 100   // sentences per 100 words
	sc.ColemanLiau = 0.0588*l - 0.296*st - 15.8
	sc.ARI = 4.71*(letters/w) + 0.5*wordsPerSentence - 21.43
	pdw := difficult / w * 100 // percentage difficult words
	sc.DaleChall = 0.1579*pdw + 0.0496*wordsPerSentence
	if pdw > 5 {
		sc.DaleChall += 3.6365
	}
	return sc
}

// GradeConsensus returns the median of the grade-level metrics
// (Flesch–Kincaid, Gunning-Fog, SMOG, Coleman–Liau, ARI), a robust single
// number for dashboards.
func GradeConsensus(sc Scores) float64 {
	grades := []float64{sc.FleschKincaidGrade, sc.GunningFog, sc.SMOG, sc.ColemanLiau, sc.ARI}
	// Insertion sort (5 elements).
	for i := 1; i < len(grades); i++ {
		for j := i; j > 0 && grades[j] < grades[j-1]; j-- {
			grades[j], grades[j-1] = grades[j-1], grades[j]
		}
	}
	return grades[2]
}
