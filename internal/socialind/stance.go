package socialind

import (
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/lexicon"
	"repro/internal/textutil"
)

// Stance is a user's positioning towards an article (paper §3.1: positive
// means users support or comment without doubts; negative means users
// question or contradict the article).
type Stance uint8

// Stance labels.
const (
	// Comment is a neutral reaction with no clear orientation.
	Comment Stance = iota
	// Support endorses the article.
	Support
	// Deny questions or contradicts the article.
	Deny
)

// String returns the stance label.
func (s Stance) String() string {
	switch s {
	case Support:
		return "support"
	case Deny:
		return "deny"
	case Comment:
		return "comment"
	default:
		return "unknown"
	}
}

// StanceClassifier labels reply text. The lexicon path is always
// available; attach a trained naive Bayes model with SetModel to blend in
// learned evidence. The model pointer is atomic so periodic retraining
// can swap models under live concurrent classification.
type StanceClassifier struct {
	model atomic.Pointer[classify.NaiveBayes]
}

// NewStanceClassifier returns a lexicon-only classifier.
func NewStanceClassifier() *StanceClassifier { return &StanceClassifier{} }

// SetModel attaches a naive Bayes model trained with classes "support",
// "deny" and "comment" over stemmed tokens.
func (c *StanceClassifier) SetModel(nb *classify.NaiveBayes) { c.model.Store(nb) }

// Tokens produces the stemmed, stopword-free token stream used both for
// lexicon scoring and model features.
func Tokens(text string) []string {
	return textutil.StemAll(textutil.ContentWords(text))
}

// Classify labels one reply.
func (c *StanceClassifier) Classify(text string) Stance {
	support, deny := lexiconVotes(text)
	if m := c.model.Load(); m != nil {
		if class, p := m.Predict(Tokens(text)); p > 0.5 {
			switch class {
			case "support":
				support += 2
			case "deny":
				deny += 2
			}
		}
	}
	switch {
	case deny > support:
		return Deny
	case support > deny:
		return Support
	default:
		return Comment
	}
}

// lexiconVotes counts support and deny cues; a question mark next to a
// question cue ("source?") doubles as a deny vote.
func lexiconVotes(text string) (support, deny float64) {
	toks := textutil.Tokenize(text)
	hasQuestionMark := false
	for _, t := range toks {
		if t.Kind == textutil.KindPunct && t.Text[0] == '?' {
			hasQuestionMark = true
		}
	}
	for _, t := range toks {
		if t.Kind != textutil.KindWord {
			continue
		}
		w := t.Text
		switch {
		case lexicon.IsDenyCue(w):
			deny++
		case lexicon.IsSupportCue(w):
			support++
		case lexicon.IsQuestionCue(w) && hasQuestionMark:
			deny += 0.5
		}
	}
	return support, deny
}

// StanceMix summarises the stance distribution over an article's replies.
type StanceMix struct {
	// Support, Deny and Comment count classified replies.
	Support, Deny, Comment int
}

// Total returns the number of classified replies.
func (m StanceMix) Total() int { return m.Support + m.Deny + m.Comment }

// NetStance maps the mix onto [-1, 1]: +1 all supportive, -1 all denying.
func (m StanceMix) NetStance() float64 {
	if m.Total() == 0 {
		return 0
	}
	return float64(m.Support-m.Deny) / float64(m.Total())
}

// AnalyzeStances classifies every reply in a cascade.
func (c *StanceClassifier) AnalyzeStances(cascade []Post) StanceMix {
	var mix StanceMix
	for _, p := range cascade {
		if p.Kind != Reply || p.Text == "" {
			continue
		}
		switch c.Classify(p.Text) {
		case Support:
			mix.Support++
		case Deny:
			mix.Deny++
		default:
			mix.Comment++
		}
	}
	return mix
}

// Indicators bundles the social indicators for one article.
type Indicators struct {
	// Reach is the cascade reach summary.
	Reach Reach
	// Popularity is the log-scaled popularity score in [0, 1].
	Popularity float64
	// Stances is the reply stance mix.
	Stances StanceMix
}

// Analyze computes reach and stance indicators for a cascade.
func (c *StanceClassifier) Analyze(cascade []Post) Indicators {
	reach := ComputeReach(cascade)
	return Indicators{
		Reach:      reach,
		Popularity: PopularityScore(reach),
		Stances:    c.AnalyzeStances(cascade),
	}
}
