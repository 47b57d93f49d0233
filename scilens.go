package scilens

import (
	"net/http"
	"time"

	"repro/internal/analytics"
	"repro/internal/api"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/indicators"
	"repro/internal/outlets"
	"repro/internal/rdbms"
	"repro/internal/reviews"
	"repro/internal/socialind"
	"repro/internal/synth"
)

// Core platform types, re-exported from the assembly layer.
type (
	// Platform is the assembled SciLens system: streaming entry point,
	// hot store, warehouse, indicator engine and expert-review store.
	Platform = core.Platform
	// Config configures New.
	Config = core.Config
	// Assessment is the single-article view of paper Figure 3.
	Assessment = core.Assessment
	// IngestStats counts ingestion outcomes.
	IngestStats = core.IngestStats
	// TrainReport summarises a periodic model-training run.
	TrainReport = core.TrainReport
	// TrainOption customises a periodic training run (e.g. WithReindex).
	TrainOption = core.TrainOption
	// ReindexReport summarises one batch corpus re-evaluation run.
	ReindexReport = core.ReindexReport
	// ReindexOption customises a ReindexCorpus run (e.g. ReindexForce).
	ReindexOption = core.ReindexOption
	// StorageStats reports the store's partition layout, WAL volume and
	// checkpoint/recovery history (Platform.StorageStats).
	StorageStats = rdbms.StorageStats
	// CheckpointStats reports one completed checkpoint
	// (Platform.Checkpoint).
	CheckpointStats = rdbms.CheckpointStats
	// DailyReport summarises one RunDaily maintenance cycle (migration +
	// model training).
	DailyReport = core.DailyReport
	// TopicModelReport summarises a topic-discovery training run.
	TopicModelReport = core.TopicModelReport
	// ModelEvalReport scores a trained model against ground truth.
	ModelEvalReport = core.ModelEvalReport
	// ComputePool is the worker pool the parallel jobs run on (the
	// paper's Spark role).
	ComputePool = compute.Pool
	// StreamStats is the per-stage counter snapshot of the streaming
	// ingestion subsystem (pipeline stages, dead letters, live feed).
	StreamStats = core.StreamStats
	// LiveAssessment is one committed assessment as published on the live
	// feed (GET /api/stream).
	LiveAssessment = core.LiveAssessment
	// DeadLetter is one event the streaming pipeline gave up on, with its
	// failure reason; replay with Platform.ReplayDeadLetters.
	DeadLetter = core.DeadLetter
)

// NewComputePool builds a worker pool for the parallel training and
// re-indexing jobs; workers < 1 means GOMAXPROCS. Its telemetry is private:
// jobs on Platform.Compute record on the platform's registry instead.
func NewComputePool(workers int) *ComputePool {
	return compute.NewPool(workers, nil)
}

// WithReindex makes a training job re-evaluate the stored corpus under the
// freshly attached model before returning (see Platform.ReindexCorpus), so
// stored assessments never mix model generations.
func WithReindex() TrainOption { return core.WithReindex() }

// ReindexForce makes ReindexCorpus re-evaluate every stored row, ignoring
// the incremental model-generation watermark that normally skips rows
// already current under the live models.
func ReindexForce() ReindexOption { return core.ReindexForce() }

// Indicator engine types.
type (
	// Engine computes indicator reports for article documents.
	Engine = indicators.Engine
	// EngineConfig configures NewEngine.
	EngineConfig = indicators.Config
	// Report is the full indicator bundle for one article.
	Report = indicators.Report
	// Post is one social-media posting in a reaction cascade.
	Post = socialind.Post
)

// Outlet registry types.
type (
	// Outlet is one news source.
	Outlet = outlets.Outlet
	// Registry resolves outlets by ID and by domain.
	Registry = outlets.Registry
	// RatingClass is the five-band outlet quality ranking.
	RatingClass = outlets.RatingClass
)

// Expert review types (paper §3.2).
type (
	// Review is one expert's annotation of one article on the seven
	// criteria.
	Review = reviews.Review
	// ReviewAggregate is the weighted, time-sensitive review summary.
	ReviewAggregate = reviews.Aggregate
	// Criterion indexes the seven review criteria.
	Criterion = reviews.Criterion
)

// Analytics types (paper §4).
type (
	// ActivitySeries is the Figure 4 newsroom-activity time series.
	ActivitySeries = analytics.ActivitySeries
	// ClassDensity is one rating class's KDE curve (Figure 5).
	ClassDensity = analytics.ClassDensity
	// ArticleFact is the flattened per-article record the analytics
	// consume.
	ArticleFact = analytics.ArticleFact
	// ConsensusConfig parameterises the consensus experiment (claim C2).
	ConsensusConfig = analytics.ConsensusConfig
	// ConsensusResult reports the consensus experiment.
	ConsensusResult = analytics.ConsensusResult
)

// Synthetic world types (the substitute for the proprietary firehose).
type (
	// World is a generated corpus: articles plus social cascades.
	World = synth.World
	// WorldConfig parameterises GenerateWorld.
	WorldConfig = synth.Config
	// Article is one generated news article.
	Article = synth.Article
	// Event is one firehose event (posting or reaction).
	Event = synth.Event
)

// Rating classes, best first (the ACSH-style five-band ranking).
const (
	Excellent  = outlets.Excellent
	Good       = outlets.Good
	Mixed      = outlets.Mixed
	Poor       = outlets.Poor
	VeryPoor   = outlets.VeryPoor
	NumClasses = outlets.NumClasses
)

// The seven expert-review criteria, in paper order (§3.2).
const (
	FactualAccuracy         = reviews.FactualAccuracy
	ScientificUnderstanding = reviews.ScientificUnderstanding
	LogicReasoning          = reviews.LogicReasoning
	PrecisionClarity        = reviews.PrecisionClarity
	SourcesQuality          = reviews.SourcesQuality
	Fairness                = reviews.Fairness
	Clickbaitness           = reviews.Clickbaitness
	NumCriteria             = reviews.NumCriteria
)

// Demo window: the paper's 60-day COVID-19 collection period.
var (
	// WindowStart is 2020-01-15 UTC.
	WindowStart = synth.WindowStart
)

// WindowDays is the demo collection window length (60).
const WindowDays = synth.WindowDays

// Sentinel errors.
var (
	// ErrNotIngested is returned when an article URL or ID is unknown to
	// the platform's store.
	ErrNotIngested = core.ErrNotIngested
	// ErrNoData is returned by analytics jobs with an empty segment.
	ErrNoData = analytics.ErrNoData
	// ErrFollower is returned by write entry points on a follower replica
	// (Config.ReplicaOf); writes go to the primary it names.
	ErrFollower = core.ErrFollower
)

// New assembles a platform: store schemas, indicator engine and ingestion
// pipeline. The zero Config is a working default (the 45-outlet demo
// shortlist, 4 pipeline shards, an in-memory store and warehouse, real
// clock, COVID-19 topic segment).
func New(cfg Config) (*Platform, error) { return core.NewPlatform(cfg) }

// NewEngine builds a standalone indicator engine, for evaluating documents
// without assembling the full platform.
func NewEngine(cfg EngineConfig) *Engine { return indicators.NewEngine(cfg) }

// EvaluateDocument computes the full indicator report for one document with
// a default engine — the one-shot path behind "any arbitrary news article
// that a user wants to evaluate" (paper §4.1). For repeated evaluations
// construct one Engine (or Platform) and reuse it; the engine caches.
func EvaluateDocument(doc, url string) (*Report, error) {
	return NewEngine(EngineConfig{}).Evaluate(doc, url, nil)
}

// DemoShortlist returns the 45-outlet registry with the five-band quality
// ranking used by the paper's demonstration (§4).
func DemoShortlist() *Registry { return outlets.DemoShortlist() }

// GenerateWorld builds the deterministic synthetic corpus that substitutes
// the proprietary COVID-19 crawl: articles with embedded references plus
// social-media reaction cascades over the demo window.
func GenerateWorld(cfg WorldConfig) *World { return synth.GenerateWorld(cfg) }

// NewHTTPServer mounts every Indicators API endpoint (paper §3.3) for the
// platform on one handler.
func NewHTTPServer(p *Platform) http.Handler { return api.NewServer(p) }

// NewDebugHandler returns the platform's standalone observability
// surface — GET /metrics, /api/version, /api/debug/traces and
// net/http/pprof — for a separate, non-public listener (the -debug-addr
// flag of both commands).
func NewDebugHandler(p *Platform) http.Handler { return api.DebugHandler(p.Metrics) }

// NewReplHandler mounts only the replication endpoints (manifest,
// generation and WAL streaming) for a separate listener (-repl-addr),
// keeping follower traffic off the public API address. The same routes
// are always served on the main handler too.
func NewReplHandler(p *Platform) http.Handler { return api.NewReplService(p) }

// BootstrapConfig parameterises Bootstrap.
type BootstrapConfig struct {
	// Seed drives the synthetic world (default 1).
	Seed int64
	// Days is the generation window (default WindowDays = 60).
	Days int
	// RateScale scales per-outlet posting rates; < 1 shrinks the corpus
	// for fast experiments (default 1).
	RateScale float64
	// ReactionScale scales social cascade sizes (default 1).
	ReactionScale float64
	// Platform overrides the platform configuration; its Clock default is
	// pinned to the end of the generation window so time-decayed review
	// weights are reproducible.
	Platform Config
}

// Bootstrap assembles a platform and streams a deterministic synthetic
// world through the full ingestion path (queue → extraction → indicators →
// store). It is the quickest route to a populated platform for examples,
// benchmarks and experiments.
func Bootstrap(cfg BootstrapConfig) (*Platform, *World, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Days <= 0 {
		cfg.Days = WindowDays
	}
	if cfg.RateScale == 0 {
		cfg.RateScale = 1
	}
	if cfg.ReactionScale == 0 {
		cfg.ReactionScale = 1
	}
	world := GenerateWorld(WorldConfig{
		Seed:          cfg.Seed,
		Registry:      cfg.Platform.Registry,
		Days:          cfg.Days,
		RateScale:     cfg.RateScale,
		ReactionScale: cfg.ReactionScale,
	})
	pc := cfg.Platform
	if pc.Clock == nil {
		end := world.Start.AddDate(0, 0, world.Days)
		pc.Clock = func() time.Time { return end }
	}
	platform, err := New(pc)
	if err != nil {
		return nil, nil, err
	}
	// A follower replica is populated by replication, never by local
	// ingest — writes would be rejected with ErrFollower anyway.
	recovered := pc.ReplicaOf != ""
	// A durable platform that recovered a non-empty corpus already holds
	// the world's rows (plus anything ingested since); re-streaming the
	// synthetic firehose would only re-evaluate what is already stored.
	if pc.DataDir != "" {
		if tbl, err := platform.DB.Table(core.ArticlesTable); err == nil && tbl.Len() > 0 {
			recovered = true
		}
	}
	if !recovered {
		if _, err := platform.IngestWorld(world); err != nil {
			return nil, nil, err
		}
	}
	return platform, world, nil
}
