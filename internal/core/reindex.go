package core

import (
	"errors"
	"time"

	"repro/internal/compute"
	"repro/internal/indicators"
	"repro/internal/rdbms"
)

// Corpus re-indexing (paper §3.3): periodic model retraining is only half
// of the maintenance loop — the stored per-article indicator columns were
// computed with whatever models were live at ingest time, so after a
// retrain every already-ingested row is stale until it is re-evaluated.
// ReindexCorpus streams the retained source documents through the same
// single-pass indicator pipeline the real-time path uses, fanned out on the
// compute layer, and rewrites each row atomically while assessment traffic
// keeps being served.

// ReindexReport summarises one corpus re-evaluation run.
type ReindexReport struct {
	// Articles is the number of stored documents streamed through the
	// indicator pipeline.
	Articles int
	// Changed counts article rows whose indicator columns actually
	// differed under the current models.
	Changed int
	// Failed counts documents that no longer parse (row left untouched).
	Failed int
	// Skipped counts article rows whose model-generation watermark already
	// matched the engine's current models — they were not re-evaluated at
	// all (the incremental path after partial or repeated runs).
	Skipped int
	// Replies is the number of stored replies re-classified by the stance
	// model; StanceChanged counts those whose stance flipped.
	Replies int
	// StanceChanged counts replies whose stored stance label flipped.
	StanceChanged int
	// Duration is the wall-clock time of the whole run (articles +
	// replies); RowsPerSec is the article throughput over the article
	// phase alone, so it measures what its name says even when the reply
	// phase dominates.
	Duration   time.Duration
	RowsPerSec float64
}

// errRowUnchanged aborts a Mutate that would rewrite identical values.
var errRowUnchanged = errors.New("core: row unchanged")

// colUpdate is one (column index, new value) rewrite of an articles row.
type colUpdate struct {
	idx int
	val rdbms.Value
}

// articles-table column indices rewritten by the reindex job.
const (
	colTitle        = 4
	colClickbait    = 6
	colComposite    = 16
	colModelGen     = 17
	socialSupport   = 5
	socialDeny      = 6
	socialComment   = 7
	replyArticleCol = 1
	replyTextCol    = 2
	replyStanceCol  = 3
)

// ReindexOption customises a ReindexCorpus run.
type ReindexOption func(*reindexCfg)

type reindexCfg struct {
	force bool
}

// ReindexForce disables the model-generation watermark: every stored row
// is re-evaluated even if it is already current. Benchmarks and
// consistency audits use it; normal operation relies on the incremental
// default.
func ReindexForce() ReindexOption { return func(c *reindexCfg) { c.force = true } }

// ReindexCorpus re-evaluates stored articles under the engine's current
// models and rewrites the content/context/composite columns, then
// re-classifies the stored replies and reconciles the social stance
// aggregates. A nil pool falls back to the platform's shared compute pool.
//
// The run is incremental by default: every articles row carries the model
// generation it was last evaluated under, so rows already current —
// ingested after the last retrain, or rewritten by an earlier partial run
// — are skipped without streaming their documents at all (ReindexReport.
// Skipped); ReindexForce re-evaluates everything.
//
// Each row is rewritten with one atomic read-modify-write under its
// partition's write lock, so concurrent AssessID / GET /api/assess readers
// observe either the fully-old or the fully-new row, never a mix; stance
// aggregates are reconciled with per-article deltas rather than absolute
// writes, so reactions ingested while the job runs are preserved.
func (p *Platform) ReindexCorpus(pool *compute.Pool, opts ...ReindexOption) (*ReindexReport, error) {
	if err := p.writeGate(); err != nil {
		return nil, err
	}
	if pool == nil {
		pool = p.Compute
	}
	var cfg reindexCfg
	for _, o := range opts {
		o(&cfg)
	}
	started := time.Now()
	rep := &ReindexReport{}

	if err := p.reindexArticles(pool, cfg, rep); err != nil {
		p.noteStorageFault(err)
		return nil, err
	}
	if secs := time.Since(started).Seconds(); secs > 0 {
		rep.RowsPerSec = float64(rep.Articles) / secs
	}
	if err := p.reindexReplies(pool, rep); err != nil {
		p.noteStorageFault(err)
		return nil, err
	}

	rep.Duration = time.Since(started)
	return rep, nil
}

// reindexChunkSize bounds how many source documents are resident at once:
// the corpus is streamed chunk by chunk (evaluate, write, move on) instead
// of materialising every stored document in memory for the whole run.
const reindexChunkSize = 512

// reindexArticles streams the retained documents through EvaluateBatch and
// rewrites the derived indicator columns of each articles row. Rows whose
// model-generation watermark already matches the engine's current models
// are skipped before their documents are even fetched.
func (p *Platform) reindexArticles(pool *compute.Pool, cfg reindexCfg, rep *ReindexReport) error {
	// The generation is read once at run start and stamped on every row
	// this run rewrites: a retrain landing mid-run leaves the rows stamped
	// with the older generation, so the next run still sees them as stale.
	gen := p.Engine.ModelGeneration()
	// Snapshot only the ids (cheap); the document bodies are fetched per
	// chunk so peak memory is bounded by reindexChunkSize documents.
	var ids []string
	p.docs.Scan(func(r rdbms.Row) bool {
		ids = append(ids, r[0].Str())
		return true
	})
	if !cfg.force {
		current := make([]string, 0, len(ids))
		for _, id := range ids {
			stale := true
			err := p.articles.View(rdbms.String(id), func(r rdbms.Row) {
				stale = uint64(r[colModelGen].Int()) != gen
			})
			if err != nil {
				continue // doc without an articles row: nothing to rewrite
			}
			if stale {
				current = append(current, id)
			} else {
				rep.Skipped++
			}
		}
		ids = current
	}
	for start := 0; start < len(ids); start += reindexChunkSize {
		end := min(start+reindexChunkSize, len(ids))
		docs := make([]indicators.BatchDoc, 0, end-start)
		for _, id := range ids[start:end] {
			row, err := p.docs.Get(rdbms.String(id))
			if err != nil {
				continue // document deleted since the id snapshot
			}
			docs = append(docs, indicators.BatchDoc{ID: id, URL: row[1].Str(), HTML: row[2].Str()})
		}
		if err := p.reindexArticleChunk(pool, gen, docs, rep); err != nil {
			return err
		}
	}
	return nil
}

// reindexArticleChunk evaluates one bounded chunk and rewrites its rows.
func (p *Platform) reindexArticleChunk(pool *compute.Pool, gen uint64, docs []indicators.BatchDoc, rep *ReindexReport) error {
	results, err := p.Engine.EvaluateBatch(pool, docs)
	if err != nil {
		return err
	}
	rep.Articles += len(results)
	for _, res := range results {
		if res.Err != nil {
			rep.Failed++
			continue
		}
		report := res.Report
		// Identity and provenance columns (id, outlet, rating, url,
		// published) are kept from the stored row; everything derived from
		// the document is rewritten.
		updates := []colUpdate{
			{colTitle, rdbms.String(report.Article.Title)},
			{colClickbait, rdbms.Float(report.Content.Clickbait)},
			{colClickbait + 1, rdbms.Float(report.Content.Subjectivity)},
			{colClickbait + 2, rdbms.Float(report.Content.ReadingGrade)},
			{colClickbait + 3, rdbms.Bool(report.Content.HasByline)},
			{colClickbait + 4, rdbms.Int(int64(report.Context.InternalCount))},
			{colClickbait + 5, rdbms.Int(int64(report.Context.ExternalCount))},
			{colClickbait + 6, rdbms.Int(int64(report.Context.ScientificCount))},
			{colClickbait + 7, rdbms.Float(report.Context.ScientificRatio)},
			{colClickbait + 8, rdbms.Bool(len(report.Context.References) > 0)},
			{colClickbait + 9, rdbms.Bool(isTopic(report))},
			{colComposite, rdbms.Float(report.Composite)},
		}
		indicatorsChanged := false
		err := p.articles.Mutate(rdbms.String(res.ID), func(old rdbms.Row) (rdbms.Row, error) {
			indicatorsChanged = false
			for _, u := range updates {
				if !old[u.idx].Equal(u.val) {
					old[u.idx] = u.val
					indicatorsChanged = true
				}
			}
			// Stamp the watermark even when the indicator values came out
			// identical: the row is now known-current under these models,
			// so the next incremental run skips it without evaluating.
			genVal := rdbms.Int(int64(gen))
			if !indicatorsChanged && old[colModelGen].Equal(genVal) {
				return nil, errRowUnchanged
			}
			old[colModelGen] = genVal
			return old, nil
		})
		switch {
		case err == nil:
			if indicatorsChanged {
				rep.Changed++
			}
		case errors.Is(err, errRowUnchanged):
			// Identity rewrite: skipped, the row is already model-current.
		case errors.Is(err, rdbms.ErrNotFound):
			// Article deleted while the batch ran: nothing to rewrite.
		default:
			return err
		}
	}
	return nil
}

// reindexReplies re-classifies every stored reply with the current stance
// model, updates flipped stance labels in place, and reconciles the social
// aggregates with per-article support/deny/comment deltas.
func (p *Platform) reindexReplies(pool *compute.Pool, rep *ReindexReport) error {
	// Snapshot only the reply ids; texts are fetched chunk by chunk so peak
	// memory stays bounded like the article path.
	var ids []string
	p.replies.Scan(func(r rdbms.Row) bool {
		ids = append(ids, r[0].Str())
		return true
	})
	rep.Replies = len(ids)
	if len(ids) == 0 {
		return nil
	}
	// Per-article stance-count deltas, applied to the aggregate row on top
	// of whatever concurrent reaction ingestion has written meanwhile.
	// Each delta is derived from the label the Mutate actually replaced —
	// not from the pre-classification snapshot — so an overlapping reindex
	// (operator retry racing a scheduled run, say) that already flipped a
	// reply produces no second delta instead of double-counting. Deltas
	// are reconciled after every chunk: label rewrites and their aggregate
	// adjustments never drift apart by more than one chunk, even if a
	// later chunk aborts the run.
	for start := 0; start < len(ids); start += reindexChunkSize {
		end := min(start+reindexChunkSize, len(ids))
		deltas := make(map[string]*[3]int) // support, deny, comment
		if err := p.reindexReplyChunk(pool, ids[start:end], deltas, rep); err != nil {
			return err
		}
		if err := p.applyStanceDeltas(deltas); err != nil {
			return err
		}
	}
	return nil
}

// applyStanceDeltas adjusts the social aggregates by the accumulated
// support/deny/comment deltas.
func (p *Platform) applyStanceDeltas(deltas map[string]*[3]int) error {
	for articleID, d := range deltas {
		err := p.social.Mutate(rdbms.String(articleID), func(agg rdbms.Row) (rdbms.Row, error) {
			for i, col := range [3]int{socialSupport, socialDeny, socialComment} {
				agg[col] = rdbms.Int(agg[col].Int() + int64(d[i]))
			}
			return agg, nil
		})
		if err != nil && !errors.Is(err, rdbms.ErrNotFound) {
			return err
		}
	}
	return nil
}

// reindexReplyChunk re-classifies one bounded chunk of replies, rewrites
// flipped labels and accumulates stance-count deltas into deltas.
func (p *Platform) reindexReplyChunk(pool *compute.Pool, ids []string, deltas map[string]*[3]int, rep *ReindexReport) error {
	type reply struct {
		id, articleID, text, stance string
	}
	replies := make([]reply, 0, len(ids))
	for _, id := range ids {
		row, err := p.replies.Get(rdbms.String(id))
		if err != nil {
			continue // reply deleted since the id snapshot
		}
		replies = append(replies, reply{
			id:        id,
			articleID: row[replyArticleCol].Str(),
			text:      row[replyTextCol].Str(),
			stance:    row[replyStanceCol].Str(),
		})
	}
	type reclass struct {
		reply
		newStance string
	}
	classified, err := compute.Map(pool, replies, func(r reply) (reclass, error) {
		return reclass{reply: r, newStance: p.Engine.Stance().Classify(r.text).String()}, nil
	})
	if err != nil {
		return err
	}
	bucket := func(stance string) int {
		switch stance {
		case "support":
			return 0
		case "deny":
			return 1
		default:
			return 2
		}
	}
	for _, rc := range classified {
		if rc.newStance == rc.stance {
			continue // snapshot already current; cheap skip
		}
		var replaced string
		err := p.replies.Mutate(rdbms.String(rc.id), func(row rdbms.Row) (rdbms.Row, error) {
			replaced = row[replyStanceCol].Str()
			if replaced == rc.newStance {
				return nil, errRowUnchanged // another run got here first
			}
			row[replyStanceCol] = rdbms.String(rc.newStance)
			return row, nil
		})
		switch {
		case errors.Is(err, errRowUnchanged) || errors.Is(err, rdbms.ErrNotFound):
			continue // already current, or deleted while the batch ran
		case err != nil:
			return err
		}
		rep.StanceChanged++
		d, ok := deltas[rc.articleID]
		if !ok {
			d = &[3]int{}
			deltas[rc.articleID] = d
		}
		d[bucket(replaced)]--
		d[bucket(rc.newStance)]++
	}
	return nil
}
