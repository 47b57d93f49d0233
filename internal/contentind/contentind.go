// Package contentind computes the content-based quality indicators of
// paper §3.1: the clickbait-ness of the title, the subjectivity and
// readability of the body, and whether the article is by-lined by its
// author.
//
// The clickbait score blends a trained logistic-regression model (when one
// is registered) with lexicon evidence; the subjectivity score follows the
// OpinionFinder convention (strong clues count double). All scores are
// normalised to [0, 1] where higher means lower journalistic quality for
// clickbait/subjectivity, so the UI can colour-code them uniformly.
package contentind

import (
	"math"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/extract"
	"repro/internal/lexicon"
	"repro/internal/mlcore"
	"repro/internal/readability"
	"repro/internal/textutil"
)

// Indicators bundles the content indicators for one article.
type Indicators struct {
	// Clickbait is the clickbait-ness of the title in [0, 1].
	Clickbait float64
	// Subjectivity is the subjectivity of the body in [0, 1].
	Subjectivity float64
	// Readability carries the full readability score bundle for the body.
	Readability readability.Scores
	// ReadingGrade is the consensus (median) grade level.
	ReadingGrade float64
	// HasByline reports whether an author attribution was found.
	HasByline bool
}

// Analyzer computes content indicators. The zero value works with
// lexicon-only scoring; attach a trained model with SetClickbaitModel.
// The model pointer is atomic so periodic retraining can swap models
// under live concurrent scoring.
type Analyzer struct {
	model    atomic.Pointer[classify.LogReg]
	features *FeatureExtractor
}

// NewAnalyzer returns a lexicon-only analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{features: NewFeatureExtractor()}
}

// SetClickbaitModel attaches a trained clickbait classifier whose features
// come from the analyzer's FeatureExtractor.
func (a *Analyzer) SetClickbaitModel(m *classify.LogReg) { a.model.Store(m) }

// Features returns the analyzer's title feature extractor (for training).
func (a *Analyzer) Features() *FeatureExtractor { return a.features }

// AnalyzeDoc computes all content indicators for an article from shared
// single-pass analyses of its title and body.
func (a *Analyzer) AnalyzeDoc(art *extract.Article, title, body *textutil.Analysis) Indicators {
	ind := Indicators{
		Clickbait:    a.ClickbaitScoreDoc(title),
		Subjectivity: SubjectivityScoreDoc(body),
		Readability:  readability.ScoreDoc(body),
		HasByline:    art.HasByline(),
	}
	ind.ReadingGrade = readability.GradeConsensus(ind.Readability)
	return ind
}

// ClickbaitScoreDoc is ClickbaitScore over a shared title analysis.
func (a *Analyzer) ClickbaitScoreDoc(title *textutil.Analysis) float64 {
	lex := LexiconClickbaitScoreDoc(title)
	m := a.model.Load()
	if m == nil {
		return lex
	}
	p := m.Prob(a.features.ExtractDoc(title))
	return (p + lex) / 2
}

// LexiconClickbaitScore is the deterministic lexicon-only clickbait score,
// a logistic squash of weighted cue counts.
func LexiconClickbaitScore(title string) float64 {
	if title == "" {
		return 0
	}
	toks := textutil.Tokenize(title)
	words := 0
	cueWords := 0
	exclaims := 0
	questions := 0
	numbers := 0
	for _, t := range toks {
		switch t.Kind {
		case textutil.KindWord:
			words++
			if lexicon.IsClickbaitWord(t.Text) {
				cueWords++
			}
		case textutil.KindNumber:
			numbers++
		case textutil.KindPunct:
			if t.Text[0] == '!' {
				exclaims += len(t.Text)
			}
			if t.Text[0] == '?' {
				questions += len(t.Text)
			}
		}
	}
	phrases := lexicon.ClickbaitPhraseHits(title)
	forwards := lexicon.ForwardReferenceHits(title)
	allCaps := textutil.AllCapsWordCount(title)
	return squashClickbait(phrases, forwards, cueWords, exclaims, questions, numbers, words, allCaps)
}

// LexiconClickbaitScoreDoc is LexiconClickbaitScore over a shared title
// analysis (one tokenisation, one lower-casing, stems reused).
func LexiconClickbaitScoreDoc(a *textutil.Analysis) float64 {
	if a.Text == "" {
		return 0
	}
	exclaims := 0
	questions := 0
	numbers := 0
	for i := range a.Tokens {
		t := &a.Tokens[i]
		switch t.Kind {
		case textutil.KindNumber:
			numbers++
		case textutil.KindPunct:
			if t.Text[0] == '!' {
				exclaims += len(t.Text)
			}
			if t.Text[0] == '?' {
				questions += len(t.Text)
			}
		}
	}
	h := a.LowerText()
	phrases := lexicon.ClickbaitPhraseHitsLower(h)
	forwards := lexicon.ForwardReferenceHitsLower(h)
	return squashClickbait(phrases, forwards, cueWordCount(a), exclaims, questions, numbers, len(a.Words), a.AllCapsWords)
}

// cueWordCount is the number of words in a whose stem is a clickbait cue,
// summed over distinct forms.
func cueWordCount(a *textutil.Analysis) int {
	n := 0
	for i := range a.Forms {
		if lexicon.IsClickbaitStem(a.Forms[i].Stem) {
			n += a.Forms[i].Count
		}
	}
	return n
}

// squashClickbait blends the cue counts into the final [0, 1] score.
func squashClickbait(phrases, forwards, cueWords, exclaims, questions, numbers, words, allCaps int) float64 {
	score := 1.8*float64(phrases) +
		1.2*float64(forwards) +
		0.9*float64(cueWords) +
		0.6*float64(exclaims) +
		0.3*float64(questions) +
		0.5*float64(allCaps)
	if numbers > 0 && words > 0 && (phrases > 0 || cueWords > 0) {
		// Listicle-style "7 tricks..." headline.
		score += 0.4
	}
	// Squash: zero evidence → 0, one strong phrase ≈ 0.72, several cues → 1.
	return 1 - math.Exp(-score*0.7)
}

// SubjectivityScore scores body text in [0, 1] using the subjectivity
// lexicon: strong clues weigh 2, weak clues 1, boosters 0.5, normalised by
// word count against an empirical ceiling.
//
//scilint:ignore testonlyapi reference for SubjectivityScoreDoc in TestSharedAnalysisEquivalence
func SubjectivityScore(body string) float64 {
	words := textutil.Words(body)
	if len(words) == 0 {
		return 0
	}
	weighted := 0.0
	for _, w := range words {
		if e, ok := lexicon.LookupSubjectivity(w); ok {
			if e.Strong {
				weighted += 2
			} else {
				weighted += 1
			}
			continue
		}
		if lexicon.IsBooster(w) {
			weighted += 0.5
		}
	}
	// Density of weighted clues per word; 0.12 (≈ one strong clue every
	// 17 words) is treated as fully subjective.
	density := weighted / float64(len(words))
	score := density / 0.12
	if score > 1 {
		score = 1
	}
	return score
}

// SubjectivityScoreDoc is SubjectivityScore over a shared body analysis:
// the lexicon is probed once per distinct form with its precomputed stem,
// and each clue weighs its form's count. Every weight is a multiple of
// 0.5 and every count an integer, so the sum is exact and equals the
// word-by-word one bit for bit.
func SubjectivityScoreDoc(a *textutil.Analysis) float64 {
	n := len(a.Words)
	if n == 0 {
		return 0
	}
	weighted := 0.0
	for i := range a.Forms {
		f := &a.Forms[i]
		w := 0.0
		if e, ok := lexicon.SubjectivityByStem(f.Stem); ok {
			w = 1
			if e.Strong {
				w = 2
			}
		} else if lexicon.IsBoosterStem(f.Stem) {
			w = 0.5
		}
		weighted += w * float64(f.Count)
	}
	density := weighted / float64(n)
	score := density / 0.12
	if score > 1 {
		score = 1
	}
	return score
}

// FeatureExtractor maps headlines to sparse feature vectors for the
// clickbait classifier. The feature space is fixed-dimension: hashed word
// unigrams/bigrams plus a dense block of stylometric features.
type FeatureExtractor struct{}

// hashDim is the dimensionality of the hashed-text block.
const hashDim = 1 << 12

// Stylometric feature slots (appended after the hashed block).
const (
	featWordCount = iota
	featAvgWordLen
	featExclaims
	featQuestions
	featAllCaps
	featCapRatio
	featNumbers
	featPhraseHits
	featForwardRefs
	featCueWords
	numStyleFeatures
)

// NewFeatureExtractor returns an extractor.
func NewFeatureExtractor() *FeatureExtractor { return &FeatureExtractor{} }

// Dim returns the total feature dimensionality.
func (f *FeatureExtractor) Dim() int { return hashDim + numStyleFeatures }

// Extract builds the feature vector for a headline.
func (f *FeatureExtractor) Extract(title string) mlcore.SparseVector {
	words := textutil.Words(title)
	terms := append([]string{}, words...)
	terms = append(terms, textutil.Bigrams(words)...)
	v := mlcore.HashFeatures(terms, hashDim)

	toks := textutil.Tokenize(title)
	exclaims, questions, numbers := 0, 0, 0
	wordLen := 0
	cueWords := 0
	for _, t := range toks {
		switch t.Kind {
		case textutil.KindWord:
			wordLen += len(t.Text)
			if lexicon.IsClickbaitWord(t.Text) {
				cueWords++
			}
		case textutil.KindNumber:
			numbers++
		case textutil.KindPunct:
			if t.Text[0] == '!' {
				exclaims++
			}
			if t.Text[0] == '?' {
				questions++
			}
		}
	}
	style := hashDim
	if n := len(words); n > 0 {
		v[style+featWordCount] = float64(n) / 20
		v[style+featAvgWordLen] = float64(wordLen) / float64(n) / 10
	}
	v[style+featExclaims] = float64(exclaims)
	v[style+featQuestions] = float64(questions)
	v[style+featAllCaps] = float64(textutil.AllCapsWordCount(title))
	v[style+featCapRatio] = textutil.CapitalizedRatio(title)
	v[style+featNumbers] = float64(numbers)
	v[style+featPhraseHits] = float64(lexicon.ClickbaitPhraseHits(title))
	v[style+featForwardRefs] = float64(lexicon.ForwardReferenceHits(title))
	v[style+featCueWords] = float64(cueWords)
	return v
}

// ExtractDoc builds the feature vector from a shared title analysis —
// the same vector Extract produces, reusing the single tokenisation pass.
func (f *FeatureExtractor) ExtractDoc(a *textutil.Analysis) mlcore.SparseVector {
	words := a.WordStrings()
	terms := append([]string{}, words...)
	terms = append(terms, textutil.Bigrams(words)...)
	v := mlcore.HashFeatures(terms, hashDim)

	exclaims, questions, numbers := 0, 0, 0
	wordLen := 0
	for i := range a.Tokens {
		t := &a.Tokens[i]
		switch t.Kind {
		case textutil.KindWord:
			wordLen += len(t.Text)
		case textutil.KindNumber:
			numbers++
		case textutil.KindPunct:
			if t.Text[0] == '!' {
				exclaims++
			}
			if t.Text[0] == '?' {
				questions++
			}
		}
	}
	style := hashDim
	if n := len(words); n > 0 {
		v[style+featWordCount] = float64(n) / 20
		v[style+featAvgWordLen] = float64(wordLen) / float64(n) / 10
	}
	v[style+featExclaims] = float64(exclaims)
	v[style+featQuestions] = float64(questions)
	capRatio := 0.0
	if len(a.Words) > 0 {
		capRatio = float64(a.CapitalizedWords) / float64(len(a.Words))
	}
	v[style+featAllCaps] = float64(a.AllCapsWords)
	v[style+featCapRatio] = capRatio
	v[style+featNumbers] = float64(numbers)
	v[style+featPhraseHits] = float64(lexicon.ClickbaitPhraseHitsLower(a.LowerText()))
	v[style+featForwardRefs] = float64(lexicon.ForwardReferenceHitsLower(a.LowerText()))
	v[style+featCueWords] = float64(cueWordCount(a))
	return v
}
