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
// all indicator families consume, and a sharded LRU cache keyed by document
// content hash — with singleflight de-duplication — makes repeated and
// concurrent evaluations of the same article cheap. One document is
// evaluated on one goroutine; batches spread documents over the caller's
// compute.Pool (see EvaluateBatch).
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

// warmSampleMask samples warm-hit timing 1-in-64, so the ~350ns cached
// path is not dominated by clock reads. Cold observations time every
// pipeline run: the compute is µs–ms scale, so two clock reads vanish in
// it.
const warmSampleMask = 63

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

	cache *reportCache // nil = caching disabled

	// Engine telemetry: cache effectiveness counters plus cold/warm
	// evaluation latency.
	cacheHits, cacheMisses, cacheJoins *obs.Counter
	evalCold, evalWarm                 *obs.Histogram
	warmSample                         atomic.Uint64

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
	// CacheSize bounds the report cache, keyed by document content hash
	// (default 1024; negative disables caching).
	CacheSize int
	// Metrics is the registry the engine records on (nil: a private one).
	Metrics *obs.Registry
}

// NewEngine builds an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Registry == nil {
		cfg.Registry = outlets.DemoShortlist()
	}
	size := cfg.CacheSize
	if size == 0 {
		size = 1024
	}
	r := cfg.Metrics
	e := &Engine{
		content: contentind.NewAnalyzer(),
		refs:    refind.NewClassifier(cfg.Registry),
		stance:  socialind.NewStanceClassifier(),
		tagger:  topics.NewTagger(topics.DefaultTaxonomy()),

		cacheHits:   r.NewCounter("scilens_engine_cache_hits_total", "Report-cache hits (warm evaluations served from the LRU)."),
		cacheMisses: r.NewCounter("scilens_engine_cache_misses_total", "Report-cache misses (cold evaluations that ran the indicator pipeline)."),
		cacheJoins:  r.NewCounter("scilens_engine_cache_joins_total", "Singleflight joins (requests that waited on a concurrent evaluation of the same document)."),
		evalCold:    r.NewDurationHistogram("scilens_engine_eval_cold_seconds", "Cold evaluation latency: full indicator-pipeline runs (cache misses and uncached engines)."),
		evalWarm:    r.NewDurationHistogram("scilens_engine_eval_warm_seconds", "Warm evaluation latency: cache-hit lookups, sampled 1-in-64."),
	}
	if size > 0 {
		e.cache = newReportCache(size)
	}
	return e
}

// SetClickbaitModel attaches a trained clickbait classifier.
func (e *Engine) SetClickbaitModel(m *classify.LogReg) {
	e.content.SetClickbaitModel(m)
	e.flushCache()
}

// ClickbaitFeatures exposes the content feature extractor for training.
func (e *Engine) ClickbaitFeatures() *contentind.FeatureExtractor { return e.content.Features() }

// ClickbaitModel returns the trained clickbait model attached to the
// engine, or nil before the first training run.
func (e *Engine) ClickbaitModel() *classify.LogReg { return e.content.ClickbaitModel() }

// SetStanceModel attaches a trained stance model.
func (e *Engine) SetStanceModel(nb *classify.NaiveBayes) {
	e.stance.SetModel(nb)
	e.flushCache()
}

// Stance returns the engine's stance classifier (for cascade-only paths).
func (e *Engine) Stance() *socialind.StanceClassifier { return e.stance }

// Evaluate computes the full report for an article document. cascade may
// be nil (content + context indicators only). The cascade-independent part
// of the report is cached by document content hash (and evaluation URL);
// concurrent evaluations of the same never-seen document run the pipeline
// once and share the result.
func (e *Engine) Evaluate(doc, url string, cascade []socialind.Post) (*Report, error) {
	base, err := e.baseReport(doc, url)
	if err != nil {
		return nil, err
	}
	if len(cascade) == 0 {
		return base, nil
	}
	return e.withCascade(base, cascade), nil
}

// withCascade layers the cascade-dependent social indicators over a copy
// of the (possibly cached) base report — social depends on the cascade,
// never on the document, so the base is shared untouched.
func (e *Engine) withCascade(base *Report, cascade []socialind.Post) *Report {
	r := *base
	r.Social = e.stance.Analyze(cascade)
	r.Composite = Composite(&r)
	return &r
}

// baseReport returns the cascade-independent report for (doc, url),
// through the cache + singleflight layer when caching is enabled.
func (e *Engine) baseReport(doc, url string) (*Report, error) {
	if e.cache == nil {
		start := time.Now()
		r, err := e.computeBase(doc, url)
		e.evalCold.ObserveDuration(time.Since(start))
		return r, err
	}
	sampled := e.warmSample.Add(1)&warmSampleMask == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	r, outcome, err := e.cache.getOrCompute(keyFor(doc, url), func() (*Report, error) {
		cstart := time.Now()
		r, err := e.computeBase(doc, url)
		e.evalCold.ObserveDuration(time.Since(cstart))
		return r, err
	})
	switch outcome {
	case cacheHit:
		e.cacheHits.Inc()
		if sampled {
			e.evalWarm.ObserveDuration(time.Since(start))
		}
	case cacheJoin:
		e.cacheJoins.Inc()
	case cacheMiss:
		e.cacheMisses.Inc()
	}
	return r, err
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
	stems := make([]string, 0, titleA.ContentWordCount()+bodyA.ContentWordCount())
	stems = titleA.AppendContentStems(stems)
	stems = bodyA.AppendContentStems(stems)
	r.Topics = e.tagger.TagStems(stems)
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

// flushCache clears the cache and advances the model generation (models
// changed: cached and stored evaluations are stale).
func (e *Engine) flushCache() {
	e.modelGen.Add(1)
	if e.cache != nil {
		e.cache.flush()
	}
}
