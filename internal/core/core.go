// Package core assembles the SciLens News Platform (paper Figure 2): the
// streaming pipeline feeds the ingestion path, which extracts articles,
// computes indicators and stores everything in the RDBMS; a daily
// migration job exports the hot store into the warehouse as one storage
// generation per day; periodic jobs train the ML models over that history
// on the parallel compute layer; and the assessment path serves
// single-article reports in real time.
package core

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compute"
	"repro/internal/indicators"
	"repro/internal/obs"
	"repro/internal/outlets"
	"repro/internal/rdbms"
	"repro/internal/rdbms/vfs"
	"repro/internal/repl"
	"repro/internal/reviews"
	"repro/internal/stream"
	"repro/internal/synth"
)

// Table names used by the platform.
const (
	// ArticlesTable holds one row per ingested article.
	ArticlesTable = "articles"
	// SocialTable holds per-article social aggregates.
	SocialTable = "article_social"
	// RepliesTable holds reply texts for stance-model training.
	RepliesTable = "replies"
	// DocsTable holds the raw source document of every ingested article,
	// keyed by article id. It is what makes batch re-evaluation possible:
	// the articles table stores only derived indicator columns, so without
	// the source markup a retrained model could never be re-applied to the
	// already-ingested corpus (see ReindexCorpus).
	DocsTable = "article_docs"
	// DeadLettersTable holds events the streaming pipeline gave up on,
	// with their final failure reason; inspect with Platform.DeadLetters
	// and re-drive with ReplayDeadLetters.
	DeadLettersTable = "dead_letters"
	// ReviewsTable holds the expert reviews (paper §3.2), one row per
	// review; submit with Platform.SubmitReview.
	ReviewsTable = "reviews"
)

// topicName is the supervised topic the demo's figures segment on.
const topicName = "health/covid-19"

// deadLetterMaxCount bounds the dead_letters table: when an insert pushes
// the backlog above it, the oldest rows are evicted.
const deadLetterMaxCount = 4096

// ErrNotIngested is returned when an article URL is unknown to the store.
var ErrNotIngested = errors.New("core: article not ingested")

// Platform is the assembled system.
type Platform struct {
	// Pipeline is the streaming entry point, the asynchronous staged
	// ingestion engine: sharded bounded queues feeding decode → batched
	// evaluation → batched store commits, with retry and dead-lettering
	// (see streaming.go).
	Pipeline *stream.Pipeline
	// Bus publishes each committed assessment to live-feed subscribers
	// (the GET /api/stream SSE endpoint).
	Bus *stream.Bus
	// DB is the real-time store.
	DB *rdbms.DB
	// Registry is the outlet registry.
	Registry *outlets.Registry
	// Engine is the indicator engine.
	Engine *indicators.Engine
	// Compute is the platform's shared worker pool (the paper's Spark
	// role): batch assessment fan-out, corpus re-indexing and the periodic
	// jobs run on it by default.
	Compute *compute.Pool
	// Clock is the data clock (Config.Clock).
	Clock func() time.Time
	// Metrics is the registry GET /metrics serves: every component the
	// platform builds records on it, and the stats read it back.
	Metrics *obs.Registry

	// Table handles resolved once at assembly time: the ingestion and
	// assessment hot paths must not pay a registry lookup per event.
	articles *rdbms.Table
	social   *rdbms.Table
	replies  *rdbms.Table
	docs     *rdbms.Table
	dead     *rdbms.Table
	// reviews views the reviews table; it is written only through
	// SubmitReview, behind the write gate.
	reviews *reviews.Store

	statsMu sync.Mutex
	stats   IngestStats

	// Streaming-subsystem counters (see streaming.go).
	dlSeq     atomic.Uint64 // dead-letter id sequence
	evaluated atomic.Uint64 // postings through the batched-evaluation stage
	malformed atomic.Uint64 // payloads that failed to decode
	// admission mirrors Config.AdmissionRate > 0: only then does anything
	// read an event's admission source, so only then is it worked out.
	admission bool

	// Per-shard stage-timing handles, resolved at assembly so the batch
	// path records without a vec lookup (see streaming.go).
	obsEval   []*obs.Histogram
	obsCommit []*obs.Histogram

	// Dead-letter retention (see streaming.go): dlMaxCount is
	// deadLetterMaxCount, lowered by tests.
	dlMaxCount int
	dlMu       sync.Mutex    // serialises retention sweeps; guards dlOldest
	dlOldest   uint64        // eviction cursor: no live row has a smaller seq
	dlEvicted  atomic.Uint64 // rows evicted by the retention policy

	// dataDir is the durable home of the store ("" = in-memory platform).
	dataDir string
	closed  atomic.Bool

	// warehouseFS and warehouseDir locate the warehouse: one generation per
	// daily export, in <warehouseDir>/<YYYY-MM-DD>/ (see RunDailyMigration).
	// A durable platform keeps it under its data dir, an in-memory one in a
	// vfs.Mem of its own.
	warehouseFS  vfs.FS
	warehouseDir string

	// Storage health machine, self-healing supervisor and checkpoint
	// scheduler (see health.go). degraded is the write-path fast gate;
	// health and walBase, the store's WAL byte count when the last
	// checkpoint completed, are guarded by healthMu.
	degraded atomic.Bool
	healthMu sync.Mutex
	health   StorageHealth
	walBase  int64
	sup      *supervisor

	recoveryBackoff    time.Duration
	recoveryMaxBackoff time.Duration
	schedInterval      time.Duration
	schedWALBytes      int64
	schedLoadLimit     int

	// Follower mode (see replica.go): replica replays the primary's WAL
	// into p.DB; followerErr is the pre-built ErrFollower wrap carrying
	// the primary's URL.
	replica     *repl.Client
	primaryURL  string
	followerErr error
}

// IngestStats counts ingestion outcomes.
type IngestStats struct {
	// Postings and Reactions count processed events by type.
	Postings, Reactions int
	// ParseFailures counts postings whose article failed to extract.
	ParseFailures int
	// OrphanReactions counts reactions whose article was never seen.
	OrphanReactions int
}

// Config configures NewPlatform.
type Config struct {
	// Clock is the data clock (default time.Now): the "now" that review
	// decay, review timestamps and outlet quality are computed at.
	// Bootstrap pins it to the end of the synthetic window. Elapsed and
	// operational times — checkpoint scheduling, storage health,
	// dead-letter stamps, the pipeline's queue waits — read the wall
	// clock instead.
	Clock func() time.Time

	// AdmissionRate, when positive, enables per-source token-bucket
	// admission on the HTTP ingest path: each source (the event's outlet
	// host) is admitted to the steady lane at this rate (events/sec),
	// overflows into the lower-priority burst lane at the same rate, and
	// is throttled with a 429 + Retry-After past both budgets. IngestWorld
	// and dead-letter replay are trusted paths and bypass admission.
	AdmissionRate float64

	// DataDir is the durable home of the real-time store. When set,
	// NewPlatform recovers the previous state (snapshot + WAL replay) from
	// the directory, every mutation is write-ahead logged, and
	// Platform.Checkpoint / Close persist snapshots. Empty keeps today's
	// purely in-memory behaviour: nothing touches disk and a restart
	// starts empty.
	DataDir string
	// StoragePartitions is the lock-stripe count for the store's tables
	// (default rdbms.DefaultPartitions; 1 degenerates to the historic
	// single-lock tables).
	StoragePartitions int
	// CheckpointDeltaLimit bounds the incremental-checkpoint delta chain:
	// once a checkpoint would push the chain past this many deltas it
	// writes a full base generation instead, compacting the chain
	// (default rdbms.DefaultDeltaLimit; negative forces every checkpoint
	// to be full — the pre-incremental behaviour).
	CheckpointDeltaLimit int
	// WALFsyncPolicy selects when the durable store fsyncs its WAL:
	// "checkpoint" (default — fsync only at checkpoint/close),
	// "interval" or "interval:<duration>" (a background flusher bounds
	// the power-loss window to one cadence), or "always" (group-commit:
	// every write waits for an fsync, concurrent writers batched onto
	// one). Ignored for in-memory platforms.
	WALFsyncPolicy string
	// CheckpointInterval enables the built-in checkpoint scheduler on a
	// durable platform: a checkpoint runs every interval (default 0 = no
	// timer; see health.go for the load/degraded back-off rules).
	CheckpointInterval time.Duration
	// CheckpointWALBytes triggers a scheduled checkpoint once the WAL has
	// grown by this many bytes since the last checkpoint (default 0 = no
	// byte trigger). Either trigger alone enables the scheduler.
	CheckpointWALBytes int64
	// StorageFS injects the filesystem the durable store runs on (default
	// the real OS). Fault-injection tests substitute vfs.NewMem /
	// vfs.NewFault to break I/O deterministically; ignored in-memory.
	StorageFS vfs.FS

	// ReplicaOf runs the platform as a read-only follower replicating
	// from the primary at this base URL (e.g. "http://primary:8080"):
	// NewPlatform bootstraps the store from the primary's snapshot chain
	// and then replays its WAL continuously, the read surface serves
	// locally, and every write entry point returns ErrFollower. Requires
	// DataDir (the replica and its cursor persist there).
	ReplicaOf string

	// Only this package's tests set the fields below; zero means the
	// production value. streamShards and streamQueueCapacity shape the
	// ingestion pipeline (stream.NewPipeline's 4 shards × 1 024 slots);
	// recoveryBackoff and recoveryMaxBackoff bound the degraded-mode
	// supervisor's retry delay (defaultRecoveryBackoff doubling to
	// defaultRecoveryMaxBackoff).
	streamShards, streamQueueCapacity   int
	recoveryBackoff, recoveryMaxBackoff time.Duration
}

// NewPlatform builds the platform: store schemas, indicator engine and
// ingestion pipeline. It creates no warehouse directory; the first daily
// export does.
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}

	reg := obs.NewRegistry()
	// The store: recovered from disk when a data directory is configured
	// (snapshot restore + WAL replay with torn-tail tolerance), in-memory
	// otherwise.
	var db *rdbms.DB
	if cfg.DataDir != "" {
		fsync, interval, err := rdbms.ParseFsyncPolicy(cfg.WALFsyncPolicy)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		db, err = rdbms.OpenWithOptions(cfg.DataDir, rdbms.Options{
			Partitions:    cfg.StoragePartitions,
			Fsync:         fsync,
			FsyncInterval: interval,
			DeltaLimit:    cfg.CheckpointDeltaLimit,
			FS:            cfg.StorageFS,
			Metrics:       reg,
		})
		if err != nil {
			return nil, fmt.Errorf("core: open data dir: %w", err)
		}
	} else {
		db = rdbms.NewDBWithOptions(rdbms.Options{Partitions: cfg.StoragePartitions, Metrics: reg})
	}

	registry := outlets.DemoShortlist()
	p := &Platform{
		DB:       db,
		Registry: registry,
		Engine:   indicators.NewEngine(indicators.Config{Registry: registry, Metrics: reg}),
		Compute:  compute.NewPool(0, reg),
		Clock:    cfg.Clock,
		Metrics:  reg,

		dlMaxCount: deadLetterMaxCount,
		dataDir:    cfg.DataDir,

		warehouseFS:  vfs.NewMem(),
		warehouseDir: "warehouse",
	}
	if cfg.DataDir != "" {
		p.warehouseFS, p.warehouseDir = cfg.StorageFS, filepath.Join(cfg.DataDir, "warehouse")
		if p.warehouseFS == nil {
			p.warehouseFS = vfs.NewOS()
		}
	}
	// Follower initial sync runs before createSchemas: the primary's
	// generation chain creates the tables with the primary's partition
	// layout, and ensureTable then finds them instead of creating
	// locally-shaped ones.
	if err := p.setupReplica(cfg); err != nil {
		_ = db.Close()
		return nil, err
	}
	if err := p.createSchemas(); err != nil {
		return nil, err
	}
	var err error
	if p.articles, err = p.DB.Table(ArticlesTable); err != nil {
		return nil, err
	}
	if p.social, err = p.DB.Table(SocialTable); err != nil {
		return nil, err
	}
	if p.replies, err = p.DB.Table(RepliesTable); err != nil {
		return nil, err
	}
	if p.docs, err = p.DB.Table(DocsTable); err != nil {
		return nil, err
	}
	if p.dead, err = p.DB.Table(DeadLettersTable); err != nil {
		return nil, err
	}
	reviewsTable, err := p.DB.Table(ReviewsTable)
	if err != nil {
		return nil, err
	}
	p.reviews = reviews.NewStore(reviewsTable)
	// Recovered dead letters keep their ids; continue the sequence after
	// the highest one so new failures never collide with (and overwrite)
	// recovered rows, and start the retention cursor at the lowest.
	minSeq := uint64(0)
	p.dead.Scan(func(r rdbms.Row) bool {
		n, ok := deadLetterSeq(r[0].Str())
		if !ok {
			return true
		}
		if n > p.dlSeq.Load() {
			p.dlSeq.Store(n)
		}
		if minSeq == 0 || n < minSeq {
			minSeq = n
		}
		return true
	})
	if minSeq == 0 {
		minSeq = p.dlSeq.Load() + 1
	}
	p.dlOldest = minSeq
	// Recovered rows carry model generations stamped by a previous
	// process whose counter died with it; raise this process's counter
	// past the highest stored one so a stale row can never alias a new
	// generation (the incremental-reindex watermark must stay sound
	// across restarts).
	maxGen := uint64(0)
	p.articles.Scan(func(r rdbms.Row) bool {
		if g := uint64(r[colModelGen].Int()); g > maxGen {
			maxGen = g
		}
		return true
	})
	p.Engine.EnsureModelGenerationAbove(maxGen)
	p.Bus = stream.NewBus(reg)
	// The pipeline keeps its wall-clock default for Now: it reads only
	// elapsed time (queue wait, drain rate, admission refill), and
	// cfg.Clock is the data clock, which Bootstrap pins to one instant.
	p.admission = cfg.AdmissionRate > 0
	p.Pipeline = stream.NewPipeline(stream.PipelineConfig{
		Shards:        cfg.streamShards,
		QueueCapacity: cfg.streamQueueCapacity,
		AdmissionRate: cfg.AdmissionRate,
		Metrics:       reg,
		Process:       p.processBatch,
		OnDead:        p.writeDeadLetter,
	})
	evalStage := reg.NewDurationHistogramVec("scilens_pipeline_evaluate_seconds",
		"Batched-evaluation stage duration per pipeline shard.", "shard")
	commitStage := reg.NewDurationHistogramVec("scilens_pipeline_commit_seconds",
		"Store-commit stage duration (postings + coalesced reactions) per pipeline shard.", "shard")
	p.obsEval = make([]*obs.Histogram, p.Pipeline.Shards())
	p.obsCommit = make([]*obs.Histogram, p.Pipeline.Shards())
	for i := range p.obsEval {
		s := strconv.Itoa(i)
		p.obsEval[i] = evalStage.With(s)
		p.obsCommit[i] = commitStage.With(s)
	}
	p.health = StorageHealth{State: StorageOK, Since: time.Now()}
	p.health.Scheduler.Interval = time.Duration(0).String()
	if cfg.DataDir != "" {
		p.startStorageSupervisor(cfg)
	}
	if p.replica != nil {
		// Continuous replay: feed events republish on this platform's Bus
		// (the follower serves its own SSE feed), and apply-side storage
		// faults latch degraded mode exactly like local write faults —
		// the supervisor's heal-by-checkpoint then unblocks replication.
		p.replica.Start(p.Bus, p.noteStorageFault)
	}
	return p, nil
}

// ensureTable creates the table with parts lock stripes (<= 0 = the store
// default) if it is missing, or returns the existing one — a recovered
// platform (Config.DataDir) already has its tables.
func (p *Platform) ensureTable(name string, schema *rdbms.Schema, parts int) (*rdbms.Table, error) {
	if t, err := p.DB.Table(name); err == nil {
		return t, nil
	}
	return p.DB.CreateTablePartitioned(name, schema, parts)
}

// ensureIndex declares an index, tolerating one recovered from disk.
func ensureIndex(t *rdbms.Table, col string, kind rdbms.IndexKind) error {
	if err := t.CreateIndex(col, kind); err != nil && !errors.Is(err, rdbms.ErrExists) {
		return err
	}
	return nil
}

// articles-table column indices, in createSchemas' order.
const (
	colID = iota
	colOutlet
	colRating
	colURL
	colTitle
	colPublished
	colClickbait
	colSubjectivity
	colReadingGrade
	colHasByline
	colInternalRefs
	colExternalRefs
	colSciRefs
	colSciRatio
	colHasRefs
	colIsTopic
	colComposite
	colModelGen
	articleCols
)

// article_social column indices, in createSchemas' order. The three
// stance counters are adjacent, support first.
const (
	socialReactions = 1 + iota
	socialReplies
	socialReshares
	socialLikes
	socialSupport
	socialDeny
	socialComment
)

// createSchemas declares the hot-store tables and indexes. Idempotent:
// tables and indexes already present (recovered from a data directory) are
// kept as-is.
func (p *Platform) createSchemas() error {
	articleSchema, err := rdbms.NewSchema([]rdbms.Column{
		{Name: "id", Type: rdbms.TString},
		{Name: "outlet_id", Type: rdbms.TString, NotNull: true},
		{Name: "rating", Type: rdbms.TInt, NotNull: true},
		{Name: "url", Type: rdbms.TString, NotNull: true},
		{Name: "title", Type: rdbms.TString},
		{Name: "published", Type: rdbms.TTime, NotNull: true},
		{Name: "clickbait", Type: rdbms.TFloat},
		{Name: "subjectivity", Type: rdbms.TFloat},
		{Name: "reading_grade", Type: rdbms.TFloat},
		{Name: "has_byline", Type: rdbms.TBool},
		{Name: "internal_refs", Type: rdbms.TInt},
		{Name: "external_refs", Type: rdbms.TInt},
		{Name: "sci_refs", Type: rdbms.TInt},
		{Name: "sci_ratio", Type: rdbms.TFloat},
		{Name: "has_refs", Type: rdbms.TBool},
		{Name: "is_topic", Type: rdbms.TBool},
		{Name: "composite", Type: rdbms.TFloat},
		// model_gen is the engine model generation the row's indicator
		// columns were computed under — the incremental-reindex watermark.
		{Name: "model_gen", Type: rdbms.TInt, NotNull: true},
	}, "id")
	if err != nil {
		return err
	}
	articlesTable, err := p.ensureTable(ArticlesTable, articleSchema, 0)
	if err != nil {
		return err
	}
	if err := ensureIndex(articlesTable, "url", rdbms.HashIndex); err != nil {
		return err
	}
	if err := ensureIndex(articlesTable, "outlet_id", rdbms.HashIndex); err != nil {
		return err
	}
	if err := ensureIndex(articlesTable, "published", rdbms.OrderedIndex); err != nil {
		return err
	}

	socialSchema, err := rdbms.NewSchema([]rdbms.Column{
		{Name: "article_id", Type: rdbms.TString},
		{Name: "reactions", Type: rdbms.TInt},
		{Name: "replies", Type: rdbms.TInt},
		{Name: "reshares", Type: rdbms.TInt},
		{Name: "likes", Type: rdbms.TInt},
		{Name: "support", Type: rdbms.TInt},
		{Name: "deny", Type: rdbms.TInt},
		{Name: "comment", Type: rdbms.TInt},
	}, "article_id")
	if err != nil {
		return err
	}
	if _, err := p.ensureTable(SocialTable, socialSchema, 0); err != nil {
		return err
	}

	replySchema, err := rdbms.NewSchema([]rdbms.Column{
		{Name: "id", Type: rdbms.TString},
		{Name: "article_id", Type: rdbms.TString, NotNull: true},
		{Name: "text", Type: rdbms.TString},
		{Name: "stance", Type: rdbms.TString},
	}, "id")
	if err != nil {
		return err
	}
	repliesTable, err := p.ensureTable(RepliesTable, replySchema, 0)
	if err != nil {
		return err
	}
	if err := ensureIndex(repliesTable, "article_id", rdbms.HashIndex); err != nil {
		return err
	}

	docSchema, err := rdbms.NewSchema([]rdbms.Column{
		{Name: "id", Type: rdbms.TString},
		{Name: "url", Type: rdbms.TString, NotNull: true},
		{Name: "html", Type: rdbms.TString, NotNull: true},
	}, "id")
	if err != nil {
		return err
	}
	if _, err = p.ensureTable(DocsTable, docSchema, 0); err != nil {
		return err
	}

	deadSchema, err := rdbms.NewSchema([]rdbms.Column{
		{Name: "id", Type: rdbms.TString},
		{Name: "key", Type: rdbms.TString},
		{Name: "payload", Type: rdbms.TString, NotNull: true},
		{Name: "reason", Type: rdbms.TString},
		{Name: "attempts", Type: rdbms.TInt},
		{Name: "time", Type: rdbms.TTime},
	}, "id")
	if err != nil {
		return err
	}
	if _, err = p.ensureTable(DeadLettersTable, deadSchema, 0); err != nil {
		return err
	}

	// Reviews arrive at human rate while every stored read probes this
	// table, so it keeps one lock stripe: a miss then checks one index.
	reviewsTable, err := p.ensureTable(ReviewsTable, reviews.Schema(), 1)
	if err != nil {
		return err
	}
	return ensureIndex(reviewsTable, "article_id", rdbms.HashIndex)
}

// SubmitReview validates and stores an expert review, returning its id.
// Like every write it fails fast with ErrDegraded or ErrFollower, and a
// broken WAL latches degraded mode.
func (p *Platform) SubmitReview(r reviews.Review) (int64, error) {
	if err := p.writeGate(); err != nil {
		return 0, err
	}
	id, err := p.reviews.Submit(r)
	p.noteStorageFault(err)
	return id, err
}

// ReviewAggregate returns an article's expert-review aggregate as of the
// platform clock (reviews.ErrNotFound when it has no reviews).
func (p *Platform) ReviewAggregate(articleID string) (reviews.Aggregate, error) {
	return p.reviews.AggregateAt(articleID, p.Clock())
}

// Stats returns a copy of the ingestion counters.
func (p *Platform) Stats() IngestStats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.stats
}

// bumpStat applies fn to the counters under the stats lock.
func (p *Platform) bumpStat(fn func(*IngestStats)) {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	fn(&p.stats)
}

// IngestWorld streams a whole synthetic world through the ingestion
// pipeline in time order and waits for it to drain. It is a trusted path
// (no admission) and blocks on full shards, so the shard queue bound is the
// backpressure on the feed. Events of one article share the article URL as
// routing key, so a cascade stays ordered on its shard and the posting
// always precedes its reactions. The events go onto the queue as they are —
// w.Events() builds a fresh slice nobody else holds, which is the ownership
// the pipeline asks for. It returns the number of events that reached a
// final processed outcome during the call (committed or dead-lettered
// after retries; malformed payloads are excluded).
func (p *Platform) IngestWorld(w *synth.World) (int, error) {
	if err := p.writeGate(); err != nil {
		return 0, err
	}
	before := p.ingestOutcomes()
	events := w.Events()
	var err error
	for i := range events {
		if err = p.Pipeline.EnqueueSource(context.Background(), "", events[i].ArticleURL, &events[i]); err != nil {
			break
		}
	}
	p.Pipeline.Flush()
	return int(p.ingestOutcomes() - before), err
}

// ingestOutcomes counts events that reached a final non-malformed outcome
// — the "processed" notion IngestWorld reports.
func (p *Platform) ingestOutcomes() uint64 {
	return p.Pipeline.Finished() - p.malformed.Load()
}

// isTopic reports whether the report carries the supervised topic the
// platform's figures segment on.
func isTopic(report *indicators.Report) bool {
	for _, a := range report.Topics {
		if a.Topic == topicName {
			return true
		}
	}
	return false
}

// derivedCols is the articles columns that the document's report
// determines: title, content and context indicators, topic flag and
// composite. applyPosting and the reindex both write these through it.
// The identity columns (id, outlet, rating, url, published) and the
// model_gen watermark come from elsewhere.
func derivedCols(report *indicators.Report) [12]colUpdate {
	return [...]colUpdate{
		{colTitle, rdbms.String(report.Article.Title)},
		{colClickbait, rdbms.Float(report.Content.Clickbait)},
		{colSubjectivity, rdbms.Float(report.Content.Subjectivity)},
		{colReadingGrade, rdbms.Float(report.Content.ReadingGrade)},
		{colHasByline, rdbms.Bool(report.Content.HasByline)},
		{colInternalRefs, rdbms.Int(int64(report.Context.InternalCount))},
		{colExternalRefs, rdbms.Int(int64(report.Context.ExternalCount))},
		{colSciRefs, rdbms.Int(int64(report.Context.ScientificCount))},
		{colSciRatio, rdbms.Float(report.Context.ScientificRatio)},
		{colHasRefs, rdbms.Bool(len(report.Context.References) > 0)},
		{colIsTopic, rdbms.Bool(isTopic(report))},
		{colComposite, rdbms.Float(report.Composite)},
	}
}

// applyPosting stores one posting given its evaluated report. gen is the
// model generation the report was evaluated under (read by the caller before
// evaluating): stamping the commit-time generation instead would let a
// retrain that lands mid-flight mark a stale row as current, and the
// incremental reindex would then never repair it.
func (p *Platform) applyPosting(ev *synth.Event, report *indicators.Report, gen uint64) error {
	outlet, err := p.Registry.ByID(ev.OutletID)
	if err != nil {
		// Fall back to domain resolution for outlets not carried in the
		// envelope.
		host := hostOf(ev.ArticleURL)
		var ok bool
		if outlet, ok = p.Registry.ByDomain(host); !ok {
			return fmt.Errorf("posting %s: no outlet %q or domain %q: %w", ev.PostID, ev.OutletID, host, outlets.ErrNotFound)
		}
	}
	id := ev.ArticleID
	if id == "" {
		id = ev.PostID
	}
	row := make(rdbms.Row, articleCols)
	row[colID] = rdbms.String(id)
	row[colOutlet] = rdbms.String(outlet.ID)
	row[colRating] = rdbms.Int(int64(outlet.Rating))
	row[colURL] = rdbms.String(ev.ArticleURL)
	row[colPublished] = rdbms.Time(ev.Time)
	row[colModelGen] = rdbms.Int(int64(gen))
	for _, u := range derivedCols(report) {
		row[u.idx] = u.val
	}
	if err := p.articles.Upsert(row); err != nil {
		return err
	}
	// Keep the source markup: ReindexCorpus re-evaluates it whenever the
	// models are retrained.
	if err := p.docs.Upsert(rdbms.Row{
		rdbms.String(id), rdbms.String(ev.ArticleURL), rdbms.String(ev.ArticleHTML),
	}); err != nil {
		return err
	}
	if err := p.social.Upsert(rdbms.Row{
		rdbms.String(id), rdbms.Int(0), rdbms.Int(0), rdbms.Int(0),
		rdbms.Int(0), rdbms.Int(0), rdbms.Int(0), rdbms.Int(0),
	}); err != nil {
		return err
	}
	p.bumpStat(func(s *IngestStats) { s.Postings++ })
	return nil
}

// resolveArticleID maps an article URL to its stored article id via the
// url hash index.
func (p *Platform) resolveArticleID(articleURL string) (string, bool) {
	var articleID string
	found := false
	err := p.articles.ViewEq("url", rdbms.String(articleURL), func(r rdbms.Row) bool {
		articleID = r[0].Str()
		found = true
		return false
	})
	return articleID, err == nil && found
}

// reactionEffect is the store mutation one reaction event implies: the
// article_social column indexes to increment, plus the replies-table row
// for reply events (nil otherwise).
type reactionEffect struct {
	bumps []int
	reply rdbms.Row
}

// reactionEffect classifies one reaction event.
func (p *Platform) reactionEffect(ev *synth.Event, articleID string) reactionEffect {
	eff := reactionEffect{bumps: []int{socialReactions}}
	switch ev.Kind {
	case "reply":
		stance := p.Engine.Stance().Classify(ev.Text)
		eff.bumps = append(eff.bumps, socialReplies, stanceCol(stance.String()))
		eff.reply = rdbms.Row{
			rdbms.String(ev.PostID), rdbms.String(articleID),
			rdbms.String(ev.Text), rdbms.String(stance.String()),
		}
	case "reshare":
		eff.bumps = append(eff.bumps, socialReshares)
	case "like":
		eff.bumps = append(eff.bumps, socialLikes)
	}
	return eff
}

// stanceCol maps a reply's stance label to its article_social counter.
func stanceCol(stance string) int {
	switch stance {
	case "support":
		return socialSupport
	case "deny":
		return socialDeny
	}
	return socialComment
}

// deadLetterSeq parses the numeric sequence out of a dead-letter id
// ("dl-000000000042" → 42).
func deadLetterSeq(id string) (uint64, bool) {
	const prefix = "dl-"
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(id[len(prefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// hostOf extracts the (lowercased) host name from an article URL for
// outlet domain resolution: ports, userinfo, IPv6 brackets and scheme case
// are all handled by net/url, unlike the hand-rolled scan this replaces.
// Unparseable or host-less URLs yield "".
func hostOf(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" {
		return ""
	}
	return strings.ToLower(u.Hostname())
}
