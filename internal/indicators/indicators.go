// Package indicators is the unified indicator engine of the SciLens
// platform: given an article document and its social-media cascade, it
// computes every §3.1 quality indicator — content (clickbait,
// subjectivity, readability, byline), news context (internal / external /
// scientific references) and social (reach, stance) — plus topic
// assignments and one composite automated quality score.
//
// The engine is built for the real-time evaluation path (§3.3): each
// article's title and body go through one shared textutil.Analysis pass
// (tokens, stems, syllables, sentence boundaries, stop-word flags) that
// all indicator families consume. Every call parses and evaluates its
// document afresh: the engine keeps no reports. One
// document is evaluated on one goroutine; batches spread documents over
// the caller's compute.Pool (see EvaluateBatch).
package indicators

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/contentind"
	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/outlets"
	"repro/internal/refind"
	"repro/internal/socialind"
	"repro/internal/textutil"
	"repro/internal/topics"
)

// ErrNoArticle is returned when the document cannot be parsed.
var ErrNoArticle = errors.New("indicators: no article content")

// Report is the full indicator bundle for one article — the data behind
// the paper's Figure 3 single-article view.
type Report struct {
	// Article is the extracted structured article.
	Article *extract.Article
	// Content holds the content indicators.
	Content contentind.Indicators
	// Context holds the news-context (reference) indicators.
	Context refind.Indicators
	// Social holds the social-media indicators (zero value when no
	// cascade was supplied).
	Social socialind.Indicators
	// Topics are the assigned taxonomy topics, most probable first.
	Topics []topics.Assignment
	// Composite is the unified automated quality score in [0, 1]
	// (higher = better quality).
	Composite float64
}

// Engine computes indicator reports. Create with NewEngine; attach trained
// models with SetClickbaitModel / SetStanceModel. Safe for concurrent use.
type Engine struct {
	content *contentind.Analyzer
	refs    *refind.Classifier
	stance  *socialind.StanceClassifier
	tagger  *topics.Tagger

	// evalCold times every Evaluate: the compute is µs–ms scale, so two
	// clock reads vanish in it.
	evalCold *obs.Histogram

	// modelGen counts model attachments: it advances every time a trained
	// model is swapped in, so stored rows stamped with the generation they
	// were evaluated under can be recognised as current or stale (the
	// incremental-reindex watermark).
	modelGen atomic.Uint64
}

// Config configures NewEngine.
type Config struct {
	// Registry resolves outlet domains for reference classification
	// (default: outlets.DemoShortlist()).
	Registry *outlets.Registry
	// Metrics is the registry the engine records on (nil: a private one).
	Metrics *obs.Registry
}

// NewEngine builds an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Registry == nil {
		cfg.Registry = outlets.DemoShortlist()
	}
	return &Engine{
		content: contentind.NewAnalyzer(),
		refs:    refind.NewClassifier(cfg.Registry),
		stance:  socialind.NewStanceClassifier(),
		tagger:  topics.NewTagger(topics.DefaultTaxonomy()),

		evalCold: cfg.Metrics.NewDurationHistogram("scilens_engine_eval_cold_seconds", "Evaluation latency: full indicator-pipeline runs of Evaluate."),
	}
}

// SetClickbaitModel attaches a trained clickbait classifier.
func (e *Engine) SetClickbaitModel(m *classify.LogReg) {
	e.content.SetClickbaitModel(m)
	e.modelGen.Add(1)
}

// ClickbaitFeatures exposes the content feature extractor for training.
func (e *Engine) ClickbaitFeatures() *contentind.FeatureExtractor { return e.content.Features() }

// SetStanceModel attaches a trained stance model.
func (e *Engine) SetStanceModel(nb *classify.NaiveBayes) {
	e.stance.SetModel(nb)
	e.modelGen.Add(1)
}

// Stance returns the engine's stance classifier (for cascade-only paths).
func (e *Engine) Stance() *socialind.StanceClassifier { return e.stance }

// Evaluate computes the full report for an article document. cascade may
// be nil (content + context indicators only).
func (e *Engine) Evaluate(doc, url string, cascade []socialind.Post) (*Report, error) {
	start := time.Now()
	r, err := e.computeBase(doc, url)
	e.evalCold.ObserveDuration(time.Since(start))
	if err != nil || len(cascade) == 0 {
		return r, err
	}
	r.Social = e.stance.Analyze(cascade)
	r.Composite = Composite(r)
	return r, nil
}

// computeBase parses the document and evaluates the cascade-independent
// indicator families.
func (e *Engine) computeBase(doc, url string) (*Report, error) {
	art, err := extract.Parse(doc, url)
	if err != nil {
		return nil, errors.Join(ErrNoArticle, err)
	}
	return e.evaluateBase(art), nil
}

// evaluateBase runs the shared analysis pass and the cascade-independent
// indicator families (content, context, topics) on the calling goroutine.
// Both analyses go back to the pool once topics are tagged: the report
// keeps only numbers and topic names, nothing the analyses hold.
func (e *Engine) evaluateBase(art *extract.Article) *Report {
	r := &Report{Article: art}
	bodyA := textutil.NewAnalysis(art.Body)
	titleA := textutil.NewAnalysis(art.Title)
	r.Context = e.refs.Analyze(art)
	r.Content = e.content.AnalyzeDoc(art, titleA, bodyA)
	r.Topics = e.tagger.TagDoc(titleA, bodyA)
	titleA.Release()
	bodyA.Release()
	r.Composite = Composite(r)
	return r
}

// Composite blends the automated indicators into one quality score in
// [0, 1]. Weights follow the indicator families of §3.1: content quality
// (clickbait, subjectivity, byline) and journalistic foundations
// (source strength) dominate; social stance contributes when present.
func Composite(r *Report) float64 {
	score := 0.30*(1-r.Content.Clickbait) +
		0.20*(1-r.Content.Subjectivity) +
		0.10*boolScore(r.Content.HasByline) +
		0.30*r.Context.SourceStrength
	// Social stance: only meaningful with enough classified replies.
	if r.Social.Stances.Total() >= 3 {
		// NetStance in [-1,1] → [0,1].
		score += 0.10 * (r.Social.Stances.NetStance() + 1) / 2
	} else {
		// Redistribute the social weight onto the content/context blocks.
		score *= 1.0 / 0.9
	}
	if score > 1 {
		score = 1
	}
	if score < 0 {
		score = 0
	}
	return score
}

func boolScore(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ModelGeneration returns the engine's current model generation. It starts
// at 1 and advances on every model attachment (SetClickbaitModel,
// SetStanceModel); a row evaluated under generation G is up to date exactly
// while ModelGeneration() == G.
func (e *Engine) ModelGeneration() uint64 { return e.modelGen.Load() + 1 }

// EnsureModelGenerationAbove raises the generation counter until
// ModelGeneration() > g. Recovery calls it with the highest generation
// stamped on recovered rows: a fresh process's counter restarts at 1, so
// without the bump a stored generation from the previous life could
// collide with a new one and make stale rows look current.
func (e *Engine) EnsureModelGenerationAbove(g uint64) {
	for {
		cur := e.modelGen.Load()
		if cur+1 > g {
			return
		}
		if e.modelGen.CompareAndSwap(cur, g) {
			return
		}
	}
}
