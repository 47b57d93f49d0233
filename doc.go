// Package scilens is the public API of the SciLens News Platform
// reproduction (Romanou, Smeros, Castillo, Aberer; PVLDB 13(12), 2020): a
// system that ingests social-media postings in real time, extracts the news
// articles they point to, and computes heterogeneous quality indicators —
// content (clickbait, subjectivity, readability, byline), news context
// (internal / external / scientific references) and social media (reach and
// stance) — alongside expert reviews and aggregated topic insights.
//
// The package is a facade over the platform's subsystems (the streaming
// pipeline, the embedded relational store and its daily warehouse
// generations, the bounded parallel map, the ML models and the analytics
// jobs). Typical use:
//
//	platform, world, err := scilens.Bootstrap(scilens.BootstrapConfig{Seed: 1, Days: 30})
//	if err != nil { ... }
//	a, err := platform.AssessURL(world.Articles[0].URL)
//
// or, for one-off evaluation of an arbitrary document (the paper's §4.1
// "any arbitrary news article that a user wants to evaluate"):
//
//	report, err := scilens.EvaluateDocument(html, url)
//
// The aggregated demonstration analytics of paper §4 are exposed as
// Platform methods: Figure4 (newsroom activity), Figure5Engagement and
// Figure5Evidence (social-engagement and evidence-seeking KDEs), and
// RunConsensusExperiment (the indicator-assisted consensus claim).
//
// # Real-time evaluation architecture
//
// The indicator engine is organised around a shared single-pass document
// analysis (textutil.Analysis): one tokenisation pass per title and body
// produces lower-cased tokens, Porter stems, syllable counts, sentence
// boundaries and stop-word flags, and every indicator family — readability
// formulas, subjectivity and clickbait lexicon scoring, topic tagging —
// consumes that one analysis instead of re-scanning the text. One
// document is evaluated on one goroutine; batch jobs spread documents over
// a bounded compute.Pool worker set. POST /api/assess runs that pipeline
// on every request: no cache stands in front of it. The stored-assessment
// path reads rows in place (rdbms.Table.View) and memoises expert-review
// aggregates.
//
// # Batch re-indexing after model retraining
//
// Stored per-article indicator columns are computed with whatever models
// were live at ingest time, so a periodic retrain (TrainClickbaitModel,
// TrainStanceModel) would leave every already-ingested row stale. The
// platform therefore retains each article's source markup in a document
// store and exposes Platform.ReindexCorpus: a batch job that streams the
// whole corpus through the same single-pass indicator pipeline
// (Engine.EvaluateBatch, a parallel map on the compute pool),
// rewrites the content/context/composite columns with one atomic
// read-modify-write per row (rdbms.Table.Mutate), re-classifies the
// stored reply stances and reconciles the social stance aggregates with
// per-article deltas — all while the real-time assessment paths keep
// serving. RunDaily runs it once after its training stages, and the HTTP
// layer exposes it as POST /api/reindex.
//
// # Streaming ingestion
//
// Ingestion is one asynchronous, stage-parallel path
// (internal/stream.Pipeline). Producers — the POST /api/ingest bulk
// endpoint, Platform.IngestWorld, and replayed dead letters — enqueue
// events onto sharded bounded queues, keyed by article URL so a cascade's
// posting always precedes its reactions on its shard. The queue carries an
// event as its producer held it: decoded for the first two (no JSON
// between the HTTP edge and the commit), stored bytes for replay. Each
// shard worker drains micro-batches through three stages: decode (of the
// bytes only), batched evaluation
// of the postings (Engine.EvaluateBatch amortises the
// single-pass analysis across the batch on the platform compute pool), and
// batched store commits (posting rows in batch order, reactions coalesced
// into one atomic read-modify-write per article). Backpressure is
// caller-selectable per event: blocking enqueue propagates queue pressure
// back to the producer, shedding enqueue fails fast (HTTP 429). Failed
// events retry with capped exponential backoff and then land in the
// dead_letters table with their failure reason, inspectable via
// Platform.DeadLetters and re-driven via ReplayDeadLetters (POST
// /api/ingest/replay). Every committed assessment is published on the
// platform Bus and served live over GET /api/stream (SSE); GET /api/stats
// exposes the per-stage counters. Platform.IngestEvent runs the same
// evaluate and commit stages inline on a batch of one, and Platform.Close
// drains the pipeline gracefully.
//
// # Partitioned storage and durability
//
// The embedded store (internal/rdbms) shards every table into P
// lock-striped partitions keyed by primary-key hash: each stripe owns its
// heap, primary-key index and secondary-index shards, so the stream
// pipeline's parallel shards and the real-time read paths stop contending
// on one table lock; ordered range scans merge the per-partition indexes
// back into one ascending stream. Durability is opt-in via Config.DataDir:
// when set, every mutation is write-ahead logged before the call returns
// and NewPlatform recovers the previous state from the directory. An
// empty DataDir preserves the historic behaviour exactly: a purely
// in-memory platform that touches no disk. Stored article rows carry a
// model-generation watermark, so ReindexCorpus after a retrain only
// re-evaluates rows that are actually stale (ReindexForce overrides); the
// dead_letters table is bounded to its newest 4 096 rows with
// oldest-first eviction.
//
// # Incremental checkpoints and fsync policies
//
// Checkpoints are incremental: every table partition carries a dirty
// epoch, and Platform.Checkpoint (POST /api/checkpoint, callable online
// under concurrent traffic) serialises only the partitions dirtied since
// the last checkpoint into a new numbered snapshot generation, chained
// onto the base by an atomically rewritten manifest — checkpoint cost
// follows the write rate, not the corpus size. When the chain exceeds
// Config.CheckpointDeltaLimit the checkpoint compacts it into a fresh
// full base. Recovery applies manifest → base → deltas → WAL segments,
// tolerating a torn log tail (truncated at the last good record) but
// failing loudly if the manifest references a missing generation.
// Config.WALFsyncPolicy bounds the power-loss window: "checkpoint"
// (default) fsyncs only at checkpoint/close, "interval:<dur>" fsyncs on a
// background cadence, and "always" gives per-commit durability via group
// commit — concurrent writers park on a committed-LSN watermark and one
// flusher goroutine batches them onto a single fsync. Platform.Close
// drains the pipeline and writes a final checkpoint.
//
// Everything is deterministic for a fixed seed and uses only the Go
// standard library.
//
// Operator documentation lives in docs/: docs/ARCHITECTURE.md (layer map,
// subsystem design, durability/recovery flow), docs/OPERATIONS.md (flags,
// fsync tradeoffs, checkpoint tuning, crash-recovery runbook) and
// docs/API.md (the full HTTP reference for every /api endpoint, pinned
// against the code by a golden test and the CI docscheck gate).
package scilens
