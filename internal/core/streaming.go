package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/indicators"
	"repro/internal/outlets"
	"repro/internal/rdbms"
	"repro/internal/stream"
	"repro/internal/synth"
)

// Streaming ingestion: the platform's one ingest path. Producers enqueue
// events onto the stream.Pipeline's sharded bounded queues, keyed by
// article URL so a cascade's posting→reaction order is preserved per shard.
// The bulk ingest API and IngestWorld hold decoded events and enqueue them
// as *synth.Event; replayed dead letters hold the stored JSON bytes and
// enqueue those. Each micro-batch then moves through three stages: decode
// (of the envelopes that arrived as bytes — a decoded event is never
// re-encoded on the way to a commit), batched evaluation of the postings
// via Engine.EvaluateBatch
// (amortising the single-pass document analysis on the platform compute
// pool), and batched store commits (posting rows in order, reactions
// coalesced into one Table.Mutate per article). Failed events retry with
// capped backoff and finally land in the dead_letters table; committed
// assessments are published on the platform Bus for the live SSE feed.
//
// IngestEvent is the same evaluate → commit stage code run inline on a
// batch of one; TestStreamedIngestMatchesSynchronous pins that coalescing
// a micro-batch stores the rows one-at-a-time ingest stores.

// errMalformedEvent marks payloads that fail to decode (never retried).
var errMalformedEvent = errors.New("core: malformed event payload")

// processBatch is the pipeline's Process hook: one micro-batch for one
// shard through decode → evaluate → commit.
func (p *Platform) processBatch(shard int, batch []stream.Envelope) []stream.Result {
	results := make([]stream.Result, len(batch))
	events := make([]*synth.Event, len(batch))
	live := make([]bool, len(batch))

	// Stage 1: decode what arrived as bytes. Malformed payloads are
	// permanent failures.
	for i := range batch {
		ev, err := envelopeEvent(&batch[i])
		if err != nil {
			p.malformed.Add(1)
			results[i] = stream.Result{Outcome: stream.OutcomeDead, Err: errors.Join(errMalformedEvent, err)}
			continue
		}
		events[i] = ev
		live[i] = true
	}
	p.evaluateAndCommit(shard, events, live, results)
	return results
}

// envelopeEvent is the event an envelope carries: the producer's own
// *synth.Event, or the decoding of its raw payload.
func envelopeEvent(env *stream.Envelope) (*synth.Event, error) {
	switch ev := env.Event.(type) {
	case *synth.Event:
		return ev, nil
	case nil:
		decoded, err := synth.DecodeEvent(env.Payload)
		if err != nil {
			return nil, err
		}
		return &decoded, nil
	default:
		return nil, fmt.Errorf("envelope carries a %T, not a *synth.Event", ev)
	}
}

// IngestEvent processes one decoded firehose event synchronously: a batch
// of one through the pipeline's evaluate → commit stages, on the caller's
// goroutine, with no queue and no retry — the event's own failure comes
// back as the error. While the platform is in degraded read-only mode it
// fails fast with ErrDegraded; a broken-WAL error from the store latches
// that mode. Its stage timings land on shard 0's histograms.
func (p *Platform) IngestEvent(ev *synth.Event) error {
	if err := p.writeGate(); err != nil {
		return err
	}
	var result [1]stream.Result
	p.evaluateAndCommit(0, []*synth.Event{ev}, []bool{true}, result[:])
	p.countFailure(result[0].Err)
	return result[0].Err
}

// evaluateAndCommit runs decoded events through the evaluate and commit
// stages, writing one Result per live event into results (index-aligned;
// entries of non-live events are left as the decode stage set them).
func (p *Platform) evaluateAndCommit(shard int, events []*synth.Event, live []bool, results []stream.Result) {
	// Stage 2: micro-batched evaluation of the postings. EvaluateBatch
	// fans the single-pass document analysis out on the platform compute
	// pool.
	var postingIdx []int
	var docs []indicators.BatchDoc
	for i := range events {
		if live[i] && events[i].Type == synth.EventTypePosting {
			postingIdx = append(postingIdx, i)
			docs = append(docs, indicators.BatchDoc{HTML: events[i].ArticleHTML, URL: events[i].ArticleURL})
		}
	}
	reports := make(map[int]*indicators.Report, len(docs))
	// Read the generation before the batch evaluation it will describe
	// (see applyPosting).
	gen := p.Engine.ModelGeneration()
	if len(docs) > 0 {
		evalStart := time.Now()
		brs, err := p.Engine.EvaluateBatch(p.Compute, docs)
		p.obsEval[shard].ObserveDuration(time.Since(evalStart))
		if err != nil {
			// A pool-level failure (not a per-document one) is transient:
			// retry every posting of the batch.
			for _, i := range postingIdx {
				results[i] = stream.Result{Outcome: stream.OutcomeRetry, Err: err}
				live[i] = false
			}
		} else {
			p.evaluated.Add(uint64(len(docs)))
			for k, br := range brs {
				i := postingIdx[k]
				if br.Err != nil {
					// Unparseable documents fail deterministically: dead-letter
					// without burning retry attempts.
					results[i] = stream.Result{Outcome: stream.OutcomeDead, Err: br.Err}
					live[i] = false
					continue
				}
				reports[i] = br.Report
			}
		}
	}

	// Stage 3a: commit postings in batch order, so reactions later in the
	// batch resolve their article.
	commitStart := time.Now()
	defer func() { p.obsCommit[shard].ObserveDuration(time.Since(commitStart)) }()
	for _, i := range postingIdx {
		if !live[i] {
			continue
		}
		ev := events[i]
		if err := p.applyPosting(ev, reports[i], gen); err != nil {
			p.noteStorageFault(err)
			outcome := stream.OutcomeRetry
			if errors.Is(err, outlets.ErrNotFound) {
				outcome = stream.OutcomeDead // no registry entry will appear on retry
			}
			results[i] = stream.Result{Outcome: outcome, Err: err}
			live[i] = false
			continue
		}
		results[i] = stream.Result{Outcome: stream.OutcomeCommitted}
		p.publishAssessment(ev, reports[i])
	}

	// Stage 3b: resolve reactions and coalesce them into one aggregate
	// commit per article (a single Table.Mutate applies the batch's summed
	// bumps; reply rows upsert individually).
	type reactionGroup struct {
		articleID string
		idx       []int
		bumps     map[int]int64
		replies   []rdbms.Row
	}
	var order []string
	groups := make(map[string]*reactionGroup)
	for i := range events {
		if !live[i] || events[i].Type == synth.EventTypePosting {
			continue
		}
		ev := events[i]
		articleID, ok := p.resolveArticleID(ev.ArticleURL)
		if !ok {
			// Orphan reactions retry: the posting may be queued behind a
			// transient failure and land before the attempt budget runs out.
			results[i] = stream.Result{
				Outcome: stream.OutcomeRetry,
				Err:     fmt.Errorf("reaction %s: %w", ev.PostID, ErrNotIngested),
			}
			continue
		}
		g := groups[articleID]
		if g == nil {
			g = &reactionGroup{articleID: articleID, bumps: make(map[int]int64)}
			groups[articleID] = g
			order = append(order, articleID)
		}
		effect := p.reactionEffect(ev, articleID)
		for _, col := range effect.bumps {
			g.bumps[col]++
		}
		if effect.reply != nil {
			g.replies = append(g.replies, effect.reply)
		}
		g.idx = append(g.idx, i)
	}
	for _, articleID := range order {
		g := groups[articleID]
		err := func() error {
			for _, row := range g.replies {
				if err := p.replies.Upsert(row); err != nil {
					return err
				}
			}
			return p.social.Mutate(rdbms.String(g.articleID), func(agg rdbms.Row) (rdbms.Row, error) {
				for col, n := range g.bumps {
					agg[col] = rdbms.Int(agg[col].Int() + n)
				}
				return agg, nil
			})
		}()
		p.noteStorageFault(err)
		for _, i := range g.idx {
			if err != nil {
				results[i] = stream.Result{Outcome: stream.OutcomeRetry, Err: err}
			} else {
				results[i] = stream.Result{Outcome: stream.OutcomeCommitted}
			}
		}
		if err == nil {
			n := len(g.idx)
			p.bumpStat(func(s *IngestStats) { s.Reactions += n })
		}
	}
}

// LiveAssessment is the payload published on the platform Bus (and served
// over GET /api/stream) for each committed posting.
type LiveAssessment struct {
	ArticleID    string    `json:"article_id"`
	OutletID     string    `json:"outlet_id"`
	URL          string    `json:"url"`
	Title        string    `json:"title"`
	Published    time.Time `json:"published"`
	Clickbait    float64   `json:"clickbait"`
	Subjectivity float64   `json:"subjectivity"`
	ReadingGrade float64   `json:"reading_grade"`
	SciRatio     float64   `json:"sci_ratio"`
	Composite    float64   `json:"composite"`
	IsTopic      bool      `json:"is_topic"`
}

// publishAssessment pushes one committed posting's assessment to the live
// feed. Best-effort: encoding failures and slow subscribers never affect
// the ingest path.
func (p *Platform) publishAssessment(ev *synth.Event, report *indicators.Report) {
	id := ev.ArticleID
	if id == "" {
		id = ev.PostID
	}
	la := LiveAssessment{
		ArticleID:    id,
		OutletID:     ev.OutletID,
		URL:          ev.ArticleURL,
		Title:        report.Article.Title,
		Published:    ev.Time,
		Clickbait:    report.Content.Clickbait,
		Subjectivity: report.Content.Subjectivity,
		ReadingGrade: report.Content.ReadingGrade,
		SciRatio:     report.Context.ScientificRatio,
		Composite:    report.Composite,
		IsTopic:      isTopic(report),
	}
	payload, err := json.Marshal(la)
	if err != nil {
		return
	}
	p.Bus.Publish(payload)
}

// StreamEvent enqueues one firehose event onto the ingestion pipeline, as
// it is: the queue carries ev itself, so the caller must not modify *ev
// after the call (the worker reads it, possibly again on a retry). block
// selects the backpressure mode: true parks the caller while the target
// shard is full, false sheds with stream.ErrFull. This is the untrusted
// (HTTP ingest) entry point, so it runs per-source admission when
// Config.AdmissionRate enables it — a throttled source gets
// stream.ErrThrottled with a retry hint.
func (p *Platform) StreamEvent(ev *synth.Event, block bool) error {
	if err := p.writeGate(); err != nil {
		return err
	}
	if block {
		return p.Pipeline.EnqueueSource(context.Background(), p.eventSource(ev), ev.ArticleURL, ev)
	}
	return p.Pipeline.TryEnqueueSource(p.eventSource(ev), ev.ArticleURL, ev)
}

// StreamEventCtx is StreamEvent in blocking mode with cancellation: a
// caller abandoned mid-backpressure (an HTTP client that gave up) unblocks
// with the context error instead of parking a goroutine on the full shard.
// The same ownership rule holds: *ev is the pipeline's once this returns
// nil.
func (p *Platform) StreamEventCtx(ctx context.Context, ev *synth.Event) error {
	if err := p.writeGate(); err != nil {
		return err
	}
	return p.Pipeline.EnqueueSource(ctx, p.eventSource(ev), ev.ArticleURL, ev)
}

// unregisteredSource is the one admission source every event whose
// article host is not a registered outlet shares. It is not empty: the
// empty source skips admission.
const unregisteredSource = "unregistered"

// eventSource is the admission identity of one firehose event: the
// registered outlet its article's host belongs to, by the outlet's domain.
// The URL and the outlet id are both untrusted input, so any other event —
// unknown host, unparseable URL — lands in the one unregisteredSource, and
// admission keeps at most one bucket pair per registered outlet plus one.
// Reactions inherit their article's source, which is exactly right — a
// viral cascade is that article's burst, not the reacting users'. Without
// admission nothing reads the source, so the URL is not parsed for it.
func (p *Platform) eventSource(ev *synth.Event) string {
	if !p.admission {
		return ""
	}
	if o, ok := p.Registry.ByDomain(hostOf(ev.ArticleURL)); ok {
		return o.Domain
	}
	return unregisteredSource
}

// countFailure feeds the platform failure counters for one event's final
// failure; callers invoke it exactly once per event.
func (p *Platform) countFailure(cause error) {
	switch {
	case errors.Is(cause, ErrNotIngested):
		p.bumpStat(func(s *IngestStats) { s.OrphanReactions++ })
	case errors.Is(cause, indicators.ErrNoArticle):
		p.bumpStat(func(s *IngestStats) { s.ParseFailures++ })
	}
}

// writeDeadLetter is the pipeline's OnDead hook: it records the event with
// its final failure reason in the dead_letters table and counts the
// failure. The payload column always holds the event's JSON bytes — the
// ones that arrived, or, for an event that arrived decoded, its encoding,
// made here and nowhere else.
func (p *Platform) writeDeadLetter(env stream.Envelope, cause error) {
	p.countFailure(cause)
	reason := "unknown"
	if cause != nil {
		reason = cause.Error()
	}
	payload := env.Payload
	if ev, ok := env.Event.(*synth.Event); ok {
		// Encoding a struct of strings and a time cannot fail; if it ever
		// did, the row would still record key and reason.
		payload, _ = ev.Encode()
	}
	id := fmt.Sprintf("dl-%012d", p.dlSeq.Add(1))
	if err := p.dead.Upsert(rdbms.Row{
		rdbms.String(id),
		rdbms.String(env.Key),
		rdbms.String(string(payload)),
		rdbms.String(reason),
		rdbms.Int(int64(env.Attempt)),
		rdbms.Time(time.Now()),
	}); err != nil {
		// Best-effort by contract, but a broken WAL here must still latch
		// degraded mode — it means every write is failing.
		p.noteStorageFault(err)
	}
	p.enforceDeadLetterBounds()
}

// enforceDeadLetterBounds applies the dead-letter retention policy in the
// pipeline's commit path: the oldest rows beyond the size bound go. Ids
// are a monotonic sequence, so the oldest live row is found by advancing a
// cursor from the smallest known seq — amortised O(1) per dead letter ever
// written, never a table scan. Sweeps serialise on dlMu (which also guards
// the cursor); gaps left by ReplayDeadLetters' deletes are skipped as the
// cursor walks over them.
func (p *Platform) enforceDeadLetterBounds() {
	if p.dead.Len() <= p.dlMaxCount {
		return
	}
	p.dlMu.Lock()
	defer p.dlMu.Unlock()
	newest := p.dlSeq.Load()
	for p.dead.Len() > p.dlMaxCount && p.dlOldest <= newest {
		id := rdbms.String(fmt.Sprintf("dl-%012d", p.dlOldest))
		if p.dead.Delete(id) == nil {
			p.dlEvicted.Add(1)
		}
		p.dlOldest++
	}
}

// DeadLetter is one inspectable dead_letters row.
type DeadLetter struct {
	// ID is the stable dead-letter id (insertion-ordered).
	ID string
	// Key is the envelope routing key (the article URL).
	Key string
	// Payload is the original event payload.
	Payload []byte
	// Reason is the final failure reason.
	Reason string
	// Attempts is the number of failed processing attempts.
	Attempts int
	// Time is when the event was dead-lettered.
	Time time.Time
}

// DeadLetters returns the dead-letter queue in insertion order.
func (p *Platform) DeadLetters() []DeadLetter {
	var out []DeadLetter
	p.dead.Scan(func(r rdbms.Row) bool {
		out = append(out, DeadLetter{
			ID:       r[0].Str(),
			Key:      r[1].Str(),
			Payload:  []byte(r[2].Str()),
			Reason:   r[3].Str(),
			Attempts: int(r[4].Int()),
			Time:     r[5].Time(),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReplayDeadLetters re-enqueues every dead-lettered event onto the
// pipeline (with a fresh attempt budget) and removes it from the
// dead_letters table. Events that fail again are re-dead-lettered under
// new ids. With wait set it blocks until the replayed events — and only
// those, not the pipeline's whole inflight set — reach a final outcome,
// so a replay can complete under sustained concurrent ingest traffic.
// It returns the number of replayed events.
func (p *Platform) ReplayDeadLetters(wait bool) (int, error) {
	if err := p.writeGate(); err != nil {
		return 0, err
	}
	letters := p.DeadLetters()
	replayed := 0
	var done sync.WaitGroup
	for _, dl := range letters {
		if err := p.Pipeline.EnqueueNotify(dl.Key, dl.Payload, &done); err != nil {
			if wait {
				done.Wait()
			}
			return replayed, fmt.Errorf("replay %s: %w", dl.ID, err)
		}
		if err := p.dead.Delete(rdbms.String(dl.ID)); err != nil {
			if wait {
				done.Wait()
			}
			return replayed, err
		}
		replayed++
	}
	if wait {
		done.Wait()
	}
	return replayed, nil
}

// StreamStats is the merged per-stage counter snapshot of the streaming
// subsystem: pipeline stages, dead-letter backlog and the live feed.
type StreamStats struct {
	// Pipeline counters (see stream.PipelineStats).
	Enqueued     uint64 `json:"enqueued"`
	Shed         uint64 `json:"shed"`
	Throttled    uint64 `json:"throttled"`
	Evaluated    uint64 `json:"evaluated"`
	Committed    uint64 `json:"committed"`
	Retried      uint64 `json:"retried"`
	DeadLettered uint64 `json:"dead_lettered"`
	Batches      uint64 `json:"batches"`
	Inflight     int64  `json:"inflight"`
	QueueDepth   int    `json:"queue_depth"`
	QueueDepths  []int  `json:"queue_depths"`
	// Shards and BatchMax are the configured shard count and micro-batch
	// size.
	Shards   int `json:"shards"`
	BatchMax int `json:"batch_max"`
	// ShardStats breaks queue depth and shed counts down per shard and
	// lane; Admission is the per-source admitted/throttled breakdown (nil
	// unless Config.AdmissionRate enables admission).
	ShardStats []stream.ShardStats      `json:"shard_stats"`
	Admission  []stream.SourceAdmission `json:"admission,omitempty"`
	// Malformed counts payloads that failed to decode (a subset of
	// DeadLettered).
	Malformed uint64 `json:"malformed"`
	// DeadLetterBacklog is the current dead_letters table size;
	// DeadLetterEvicted counts rows removed by the retention policy
	// (the 4 096-row bound, oldest first).
	DeadLetterBacklog int    `json:"dead_letter_backlog"`
	DeadLetterEvicted uint64 `json:"dead_letter_evicted"`
	// Live-feed counters.
	Subscribers   uint64 `json:"subscribers"`
	FeedPublished uint64 `json:"feed_published"`
	FeedDropped   uint64 `json:"feed_dropped"`
}

// StreamStats snapshots the streaming subsystem's per-stage counters.
func (p *Platform) StreamStats() StreamStats {
	ps := p.Pipeline.Stats()
	bs := p.Bus.Stats()
	depth := 0
	for _, d := range ps.QueueDepths {
		depth += d
	}
	return StreamStats{
		Enqueued:          ps.Enqueued,
		Shed:              ps.Shed,
		Throttled:         ps.Throttled,
		Evaluated:         p.evaluated.Load(),
		Committed:         ps.Committed,
		Retried:           ps.Retried,
		DeadLettered:      ps.DeadLettered,
		Batches:           ps.Batches,
		Inflight:          ps.Inflight,
		QueueDepth:        depth,
		QueueDepths:       ps.QueueDepths,
		Shards:            ps.Shards,
		BatchMax:          ps.MaxBatch,
		ShardStats:        ps.PerShard,
		Admission:         ps.Admission,
		Malformed:         p.malformed.Load(),
		DeadLetterBacklog: p.dead.Len(),
		DeadLetterEvicted: p.dlEvicted.Load(),
		Subscribers:       uint64(bs.Subscribers),
		FeedPublished:     bs.Published,
		FeedDropped:       bs.Dropped,
	}
}

// Checkpoint persists the store online: WAL rotation, snapshot, segment
// prune — callable under concurrent assess/ingest/reindex traffic (each
// table is serialised under its own read barrier while the rest keep
// serving). In-memory platforms (no Config.DataDir) return rdbms.ErrNoDir.
// While degraded it returns ErrDegraded and nudges the recovery
// supervisor instead — the supervisor owns checkpointing until the store
// heals (see health.go). A checkpoint failure degrades the platform; a
// success heals it and resets the scheduler's baselines.
func (p *Platform) Checkpoint() (rdbms.CheckpointStats, error) {
	if p.degraded.Load() {
		p.kickRecovery()
		return rdbms.CheckpointStats{}, ErrDegraded
	}
	return p.runCheckpoint()
}

// StorageStats reports the store's partition layout, WAL volume and
// checkpoint/recovery history.
func (p *Platform) StorageStats() rdbms.StorageStats {
	return p.DB.StorageStats()
}

// Close drains the platform gracefully: the ingestion pipeline processes
// everything accepted so far (including pending retries) and the live feed
// closes its subscribers. Durable platforms stop the self-healing
// supervisor first (so it cannot race the final checkpoint), then write
// that checkpoint and release the store. Safe to call more than once.
func (p *Platform) Close() error {
	// A follower stops replaying first: nothing may write into the store
	// while the final checkpoint runs and the DB closes.
	if p.replica != nil {
		p.replica.Close()
	}
	p.stopStorageSupervisor()
	p.Pipeline.Close()
	p.Bus.Close()
	if p.dataDir == "" || !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	if _, err := p.DB.Checkpoint(); err != nil {
		_ = p.DB.Close()
		return fmt.Errorf("core: checkpoint on close: %w", err)
	}
	return p.DB.Close()
}
